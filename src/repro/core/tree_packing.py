"""Tree packing (paper Theorem 12, after [Karger00, Thorup07, Daga+19]).

Produces a small collection of spanning trees such that (w.h.p.) every
near-minimum cut 2-respects at least one of them.  Two regimes, as in the
paper's proof sketch:

(A) small min-cut: greedy tree packing directly -- each iteration computes a
    minimum-cost spanning tree where an edge's cost is its *relative load*
    (times used so far / multiplicity), via Boruvka in the
    Minor-Aggregation engine (measured rounds);
(B) large min-cut: Karger-sample each edge's multiplicity down so the
    sampled graph has Θ(log n) min-cut, then apply (A) on the sample; any
    1.05-minimum cut of G remains a 1.1-minimum cut of the sample w.h.p.

Substitution note (DESIGN.md): the sampling threshold needs a constant
approximation of the min-cut value; the paper uses the Õ(1)-round
(1+eps)-approximation of [GH16], we use the exact value, computed by
Nagamochi-Ono-Ibaraki contraction (:func:`_exact_min_cut_value`; the same
value Stoer-Wagner returns, in one or two maximum-adjacency scans instead
of n-1) -- only the sampling probability depends on it.

Packing runs on a :class:`~repro.graphs.csr.CSRGraph` (networkx input is
converted once, at the session boundary).  One packer serves one graph
and many: :func:`pack_trees` is the one-graph case of
:func:`pack_trees_many`.  Each graph's preamble (approximate min-cut,
sampling, canonical edge keys and ranks) runs once per graph; the greedy
iterations then run over the concatenated edge tables of all graphs.
``ma_backend`` (``REPRO_MA_BACKEND``) picks how each iteration's minimum
spanning trees are found: the default *compiled* backend runs one fused
array Boruvka for all graphs -- per phase one component labelling, one
masked ``minimum.at`` scatter, zero networkx objects -- and the
*closure* backend runs :func:`~repro.ma.boruvka.boruvka_mst` per graph
on the closure Minor-Aggregation engine, the reference.  Both use the
same deterministic tie-break (``(cost, str(edge))``), the same sampling
draws (one binomial over the canonical edge order) and the same round
charges (one per Boruvka phase), so both pack identical trees.  Trees
are returned as plain index-space adjacency mappings (what
:class:`~repro.trees.rooted.RootedTree` consumes directly), together
with their edge arrays (what :mod:`repro.kernel.forest` consumes).
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field

import numpy as np

from repro.accounting import RoundAccountant, log2ceil
from repro.graphs.csr import CSRGraph, merge_components
from repro.ma.boruvka import boruvka_mst
from repro.ma.compiled import resolve_ma_backend
from repro.ma.engine import MinorAggregationEngine
from repro.obs import trace as obs_trace
from repro.trees.rooted import Edge, _node_sort_key, edge_key


@dataclass
class TreePacking:
    """The packed spanning trees plus provenance of how they were obtained.

    ``trees`` holds plain ``{index: [neighbor indices]}`` adjacency
    mappings over the packed graph's dense node indices.
    """

    trees: list
    sampled: bool
    sampling_probability: float | None
    approx_cut_value: float
    ma_rounds: float
    duplicates_removed: int = 0
    #: per-tree (edge_u, edge_v) arrays in the adjacency insertion order
    #: (what :func:`~repro.kernel.forest.stacked_tree_arrays` consumes).
    tree_edge_arrays: "list[tuple[np.ndarray, np.ndarray]]" = field(
        default_factory=list, repr=False, compare=False
    )


def _edge_order_key(edge: Edge) -> tuple:
    return (_node_sort_key(edge[0]), _node_sort_key(edge[1]))


def _sample_multiplicities_csr(
    graph: CSRGraph, probability: float, rng: random.Random
) -> CSRGraph:
    """Binomially subsample each edge's weight-as-multiplicity.

    One vectorized exact binomial draw over the canonical edge order
    (numpy's BTPE sampler handles arbitrary multiplicities in O(1) each).
    The generator is seeded from ``rng``'s stream, so sampling stays a
    deterministic function of the packing seed.  Caveat: NEP 19 lets
    Generator distribution streams change between numpy feature releases,
    so sampled-regime packings are reproducible per (seed, numpy
    version), not across numpy upgrades.
    """
    weights = np.rint(graph.edge_w).astype(np.int64)
    positive = weights > 0
    generator = np.random.default_rng(rng.getrandbits(64))
    kept = generator.binomial(weights[positive], probability)
    survivors = kept > 0
    u = graph.edge_u[positive][survivors]
    v = graph.edge_v[positive][survivors]
    return CSRGraph(
        graph.n, u, v, kept[survivors].astype(np.float64),
        nodes=graph.nodes, canonical=True,
    )


def default_tree_count(n: int) -> int:
    """Θ(log n) trees -- the collection size of Theorem 12."""
    return 3 * log2ceil(n) + 8


def pack_trees(
    graph: CSRGraph,
    seed: int = 0,
    num_trees: int | None = None,
    accountant: RoundAccountant | None = None,
    approx_cut_value: float | None = None,
    ma_backend: str | None = None,
) -> TreePacking:
    """Theorem 12: pack Θ(log n) spanning trees by greedy load-balancing.

    The one-graph case of :func:`pack_trees_many`.  A given
    ``approx_cut_value`` replaces the Stoer-Wagner estimate (and its
    round charge).  Convert networkx input with
    :meth:`CSRGraph.from_networkx` first (sessions do this at the
    boundary).
    """
    return _pack(
        [graph], [seed], num_trees, [accountant or RoundAccountant()],
        ma_backend, [approx_cut_value],
    ).packings[0]


@dataclass
class ManyPacking:
    """Per-graph packings plus the accountants their rounds were charged to."""

    packings: list[TreePacking]
    accountants: list[RoundAccountant]


def pack_trees_many(
    graphs: "list[CSRGraph]",
    seeds: "list[int]",
    num_trees: int | None = None,
    accountants: "list[RoundAccountant] | None" = None,
    ma_backend: str | None = None,
) -> ManyPacking:
    """Pack spanning trees for many CSR graphs in one vectorized sweep.

    Every graph gets the :class:`TreePacking` (trees, sampling decisions,
    duplicate bookkeeping, round charges) that ``pack_trees(graph, seed)``
    returns, but the greedy Boruvka iterations run over one concatenated
    edge table: per phase one component labelling, one masked
    ``minimum.at``, one vectorized hook-and-jump union across *all*
    graphs at once.  Every per-graph decision (cost ties via the
    ``(cost, str)`` edge order, winner selection per component,
    phase/charge bookkeeping, duplicate-tree dedup) depends only on
    within-graph comparisons, which the concatenated order preserves;
    the per-graph random draws (sampling regime) happen in the per-graph
    preamble, one ``Random(seed)`` stream per graph.
    """
    accts = (
        list(accountants)
        if accountants is not None
        else [RoundAccountant() for _ in graphs]
    )
    return _pack(
        graphs, seeds, num_trees, accts, ma_backend, [None] * len(graphs)
    )


def _exact_min_cut_value(graph: CSRGraph) -> float:
    """Exact min-cut value λ by Nagamochi-Ono-Ibaraki contraction.

    λ̂ starts as the minimum weighted degree (a cut, so λ̂ ≥ λ).  Each
    phase runs one maximum-adjacency scan and records, for every edge,
    q(e) = r(y): the attachment of its later-scanned endpoint y right
    after e is scanned.  Since q(x, y) ≤ λ(x, y), contracting every edge
    with q(e) ≥ λ̂ -- and the last two scanned nodes, whose local
    connectivity is the last node's degree -- keeps every cut lighter
    than λ̂ intact; the supernode degrees of the contracted graph then
    tighten λ̂.  Value only.  Every λ̂ is a sum of edge weights, exact
    for integer weights, so those inputs get exactly Stoer-Wagner's
    value; float weights may differ from it in the last ulps (another
    summation order).
    """
    if not graph.is_connected():
        raise ValueError("graph must be connected")
    g = graph.drop_self_loops()
    best = math.inf
    while g.n > 1:
        best = min(best, float(g.weighted_degrees().min()))
        if g.n == 2 or best == 0.0:
            break  # two nodes: the degree is the only cut; λ ≥ 0
        indptr, indices = g.indptr.tolist(), g.indices.tolist()
        weight, row = g.adj_weight.tolist(), g.adj_edge.tolist()
        attach = [0.0] * g.n
        scanned = [False] * g.n
        q = [0.0] * g.m
        order: list[int] = []
        heap = [(-0.0, 0)]
        while heap:
            _neg, x = heapq.heappop(heap)
            if scanned[x]:
                continue  # stale entry: x was scanned at a higher attachment
            scanned[x] = True
            order.append(x)
            for slot in range(indptr[x], indptr[x + 1]):
                y = indices[slot]
                if not scanned[y]:
                    attach[y] += weight[slot]
                    q[row[slot]] = attach[y]
                    heapq.heappush(heap, (-attach[y], y))
        merge = np.array(q) >= best
        u = np.append(g.edge_u[merge], order[-1])
        v = np.append(g.edge_v[merge], order[-2])
        g, _dense = g.contract(merge_components(np.arange(g.n), u, v))
    return best


class _PackState:
    """One graph's packing inputs (from the preamble) and outputs."""

    def __init__(self, graph, seed, num_trees, acct, approx_cut_value):
        if not isinstance(graph, CSRGraph):
            raise TypeError(
                "tree packing takes a CSRGraph; convert networkx input "
                "with CSRGraph.from_networkx"
            )
        n = graph.n
        if n < 2:
            raise ValueError("need at least two nodes to pack trees")
        rng = random.Random(seed)
        self.n = n
        self.count = num_trees if num_trees is not None else default_tree_count(n)
        self.phases = log2ceil(n) + 1

        if approx_cut_value is None:
            with obs_trace.span(
                "pack.approx_min_cut", n=n, acct="packing:approx-min-cut"
            ):
                approx_cut_value = _exact_min_cut_value(graph)
            acct.charge(log2ceil(n) ** 2, "packing:approx-min-cut")
        self.approx = approx_cut_value

        target = 24.0 * max(1.0, math.log(n))
        packing_graph = graph
        self.sampled = False
        self.probability: float | None = None
        if approx_cut_value > 2 * target:
            with obs_trace.span("pack.sampling", n=n, acct="packing:sampling"):
                probability = min(1.0, target / approx_cut_value)
                for _attempt in range(6):
                    candidate = _sample_multiplicities_csr(graph, probability, rng)
                    if candidate.is_connected():
                        packing_graph = candidate
                        self.sampled = True
                        break
                    probability = min(1.0, 2 * probability)
                self.probability = probability
            acct.charge(1, "packing:sampling")
        self.packing_graph = packing_graph

        eu, ev = packing_graph.edge_u, packing_graph.edge_v
        self.eu, self.ev = eu, ev
        self.eu_list, self.ev_list = eu.tolist(), ev.tolist()
        self.mult = np.maximum(packing_graph.edge_w, 1e-12)
        # Label-space canonical keys per edge row: the tie-break and the
        # tree insertion order both live in edge_key space (endpoints
        # ordered by string, not by index -- edge_key(4, 10) is (10, 4)),
        # so both engines agree tie for tie.
        node_labels = graph.node_labels()
        self.canonical = [
            edge_key(node_labels[u], node_labels[v])
            for u, v in zip(self.eu_list, self.ev_list)
        ]
        labels = np.array([str(pair) for pair in self.canonical], dtype=np.str_)
        self.str_rank = np.empty(len(labels), dtype=np.int64)
        self.str_rank[np.argsort(labels)] = np.arange(len(labels), dtype=np.int64)
        # Full-edge canonical order; restricted to a tree's edge set it is
        # that tree's insertion order (the keys are distinct).
        self.canon_order = np.array(
            sorted(
                range(len(self.canonical)),
                key=lambda e: _edge_order_key(self.canonical[e]),
            ),
            dtype=np.int64,
        )
        self.trees: list[dict[int, list[int]]] = []
        self.tree_edges: list[tuple[np.ndarray, np.ndarray]] = []
        self.seen: set[bytes] = set()
        self.duplicates = 0

    def record(self, mask: np.ndarray) -> None:
        """Keep one iteration's spanning tree (``mask`` over the edge
        rows) unless an earlier iteration already packed the same tree."""
        signature = mask.tobytes()
        if signature in self.seen:
            self.duplicates += 1
            return
        self.seen.add(signature)
        chosen = self.canon_order[mask[self.canon_order]]
        adjacency: dict[int, list[int]] = {v: [] for v in range(self.n)}
        for e in chosen.tolist():
            u, v = self.eu_list[e], self.ev_list[e]
            adjacency[u].append(v)
            adjacency[v].append(u)
        self.trees.append(adjacency)
        self.tree_edges.append((self.eu[chosen], self.ev[chosen]))


def _pack(graphs, seeds, num_trees, accts, ma_backend, approx_values) -> ManyPacking:
    if not graphs:
        return ManyPacking(packings=[], accountants=[])
    states = [
        _PackState(graph, seed, num_trees, acct, approx)
        for graph, seed, acct, approx in zip(graphs, seeds, accts, approx_values)
    ]
    count_of = len(states)
    edge_off = np.cumsum([0] + [len(st.eu) for st in states])
    all_mult = np.concatenate([st.mult for st in states])
    uses = np.zeros(len(all_mult), dtype=np.int64)
    counts = np.array([st.count for st in states], dtype=np.int64)
    if resolve_ma_backend(ma_backend) == "closure":
        select = _ClosureBoruvka(states, accts, edge_off)
    else:
        select = _FusedBoruvka(states, accts, edge_off)

    for iteration in range(int(counts.max(initial=0))):
        with obs_trace.span(
            "pack.boruvka",
            iteration=iteration,
            graphs=count_of,
            acct="packing:boruvka",
        ):
            active = counts > iteration
            in_tree = select(uses / all_mult, active)
            # Inactive graphs selected no edges this iteration, so one
            # global add is every graph's ``uses[tree edges] += 1``.
            uses += in_tree
            for g in np.nonzero(active)[0]:
                states[g].record(in_tree[edge_off[g]:edge_off[g + 1]])

    packings = [
        TreePacking(
            trees=st.trees,
            sampled=st.sampled,
            sampling_probability=st.probability,
            approx_cut_value=st.approx,
            ma_rounds=acct.total,
            duplicates_removed=st.duplicates,
            tree_edge_arrays=st.tree_edges,
        )
        for st, acct in zip(states, accts)
    ]
    return ManyPacking(packings=packings, accountants=list(accts))


class _ClosureBoruvka:
    """Reference backend: one minimum spanning tree per graph per
    iteration, as charged rounds of the closure Minor-Aggregation engine."""

    def __init__(self, states, accts, edge_off):
        self.edge_off = edge_off
        self.engines = [
            MinorAggregationEngine(st.packing_graph, accountant=acct)
            for st, acct in zip(states, accts)
        ]
        self.rows = [
            {edge: row for row, edge in enumerate(st.canonical)} for st in states
        ]

    def __call__(self, cost: np.ndarray, active: np.ndarray) -> np.ndarray:
        in_tree = np.zeros(len(cost), dtype=bool)
        for g in np.nonzero(active)[0]:
            row_of = self.rows[g]
            local = cost[self.edge_off[g]:self.edge_off[g + 1]]
            keys = boruvka_mst(
                self.engines[g],
                edge_cost=lambda e: local[row_of[e]],
                label="packing:boruvka",
            )
            rows = np.fromiter(
                (row_of[key] for key in keys), dtype=np.int64, count=len(keys)
            )
            in_tree[self.edge_off[g] + rows] = True
        return in_tree


class _FusedBoruvka:
    """Array backend: every graph's minimum spanning tree of one iteration
    in one Boruvka over the concatenated edge table, charged one round
    per phase -- the same decisions and charges as the closure engine."""

    def __init__(self, states, accts, edge_off):
        self.accts = accts
        # Per-graph node blocks never interact: a component can only ever
        # contain nodes of one graph.
        node_off = np.cumsum([0] + [st.n for st in states])
        self.eu = np.concatenate(
            [st.eu + node_off[i] for i, st in enumerate(states)]
        )
        self.ev = np.concatenate(
            [st.ev + node_off[i] for i, st in enumerate(states)]
        )
        self.rank = np.concatenate([st.str_rank for st in states])
        self.gid = np.repeat(np.arange(len(states)), np.diff(edge_off))
        self.n_total = int(node_off[-1])
        self.phases = np.array([st.phases for st in states], dtype=np.int64)

    def __call__(self, cost: np.ndarray, active: np.ndarray) -> np.ndarray:
        count_of = len(self.phases)
        m_total = len(cost)
        sentinel = m_total
        gid = self.gid
        # Graph-major positions: within each graph the (cost, str) order is
        # the per-graph lexsort, and per-component minima never compare
        # positions across graphs.
        order = np.lexsort((self.rank, cost, gid))
        position = np.empty(m_total, dtype=np.int64)
        position[order] = np.arange(m_total, dtype=np.int64)

        comp = np.arange(self.n_total, dtype=np.int64)
        in_tree = np.zeros(m_total, dtype=bool)
        running = active.copy()
        phases = np.zeros(count_of, dtype=np.int64)
        for phase in range(int(self.phases[active].max(initial=0))):
            running &= phase < self.phases
            if not running.any():
                break
            phases += running  # a graph is charged before its breaks
            cu = comp[self.eu]
            cv = comp[self.ev]
            outgoing = (cu != cv) & running[gid]
            og_counts = np.bincount(gid[outgoing], minlength=count_of)
            running &= og_counts > 0  # per-graph "no outgoing" break
            if not outgoing.any():
                continue
            best = np.full(self.n_total, sentinel, dtype=np.int64)
            np.minimum.at(best, cu[outgoing], position[outgoing])
            np.minimum.at(best, cv[outgoing], position[outgoing])
            # An outgoing edge can never already be in a tree (its
            # endpoints would share a component), so duplicate winners
            # are harmless (idempotent scatter, commutative merge).
            fresh = order[best[best < sentinel]]
            in_tree[fresh] = True
            comp = merge_components(comp, self.eu[fresh], self.ev[fresh])
        for g in np.nonzero(active)[0]:
            self.accts[g].charge(int(phases[g]), "packing:boruvka")
        return in_tree
