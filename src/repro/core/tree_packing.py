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
(1+eps)-approximation of [GH16], we use our own Stoer-Wagner's exact value
-- only the sampling probability depends on it.

Packing runs on a :class:`~repro.graphs.csr.CSRGraph` (networkx input is
converted once, at the session boundary) and drives the engine selected
by ``ma_backend`` (``REPRO_MA_BACKEND``): the default *compiled* engine
lowers the whole Boruvka contraction sequence to array passes -- per
phase one component labelling, one masked ``minimum.at`` scatter, zero
networkx objects -- with the *same* deterministic tie-break
(``(cost, str(edge))``), the same sampling draws (one binomial over the
canonical edge order), and the same round charges as the *closure*
reference engine, so both engines pack identical trees.  Trees are
returned as plain index-space adjacency mappings (what
:class:`~repro.trees.rooted.RootedTree` consumes directly).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from repro.accounting import RoundAccountant, log2ceil
from repro.graphs.csr import CSRGraph, merge_components
from repro.ma.boruvka import boruvka_mst
from repro.ma.compiled import (
    CompiledMinorAggregationEngine,
    compiled_boruvka_rows,
    lower_edge_cost,
    resolve_ma_backend,
)
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
    #: per-tree (edge_u, edge_v) arrays in insertion order (what the
    #: batched forest builds consume); ``None`` for many-graph packings,
    #: which return them on :class:`ManyPacking` instead.
    tree_edge_arrays: "list[tuple[np.ndarray, np.ndarray]] | None" = field(
        default=None, repr=False, compare=False
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

    ``ma_backend`` selects the Minor-Aggregation engine (``None``
    inherits ``REPRO_MA_BACKEND``, default compiled); both engines pack
    bit-identical trees.  Convert networkx input with
    :meth:`CSRGraph.from_networkx` first (sessions do this at the
    boundary).
    """
    if not isinstance(graph, CSRGraph):
        raise TypeError(
            "pack_trees takes a CSRGraph; convert networkx input with "
            "CSRGraph.from_networkx"
        )
    n = graph.n
    if n < 2:
        raise ValueError("need at least two nodes to pack trees")
    acct = accountant or RoundAccountant()
    rng = random.Random(seed)
    if num_trees is None:
        num_trees = default_tree_count(n)

    if approx_cut_value is None:
        from repro.baselines.stoer_wagner import stoer_wagner_min_cut

        with obs_trace.span(
            "pack.approx_min_cut", n=n, acct="packing:approx-min-cut"
        ):
            approx_cut_value, _partition = stoer_wagner_min_cut(graph)
        acct.charge(log2ceil(n) ** 2, "packing:approx-min-cut")

    target = 24.0 * max(1.0, math.log(n))
    packing_graph = graph
    sampled = False
    probability: float | None = None
    if approx_cut_value > 2 * target:
        with obs_trace.span("pack.sampling", n=n, acct="packing:sampling"):
            probability = min(1.0, target / approx_cut_value)
            for _attempt in range(6):
                candidate = _sample_multiplicities_csr(graph, probability, rng)
                if candidate.is_connected():
                    packing_graph = candidate
                    sampled = True
                    break
                probability = min(1.0, 2 * probability)
        acct.charge(1, "packing:sampling")

    eu, ev = packing_graph.edge_u, packing_graph.edge_v
    multiplicity = np.maximum(packing_graph.edge_w, 1e-12)
    uses = np.zeros(packing_graph.m, dtype=np.int64)
    # Label-space canonical keys per edge row: the tie-break and the tree
    # insertion order both live in edge_key space (endpoints ordered by
    # string, not by index -- edge_key(4, 10) is (10, 4)), so both
    # engines agree tie for tie.
    node_labels = graph.node_labels()
    canonical = [
        edge_key(node_labels[u], node_labels[v])
        for u, v in zip(eu.tolist(), ev.tolist())
    ]

    ma_backend = resolve_ma_backend(ma_backend)
    if ma_backend == "compiled":
        engine = CompiledMinorAggregationEngine(packing_graph, accountant=acct)
    else:
        engine = MinorAggregationEngine(packing_graph, accountant=acct)
        row_of = {edge: row for row, edge in enumerate(canonical)}

    trees: list[dict[int, list[int]]] = []
    tree_edges: list[tuple[np.ndarray, np.ndarray]] = []
    seen: set[frozenset] = set()
    duplicates = 0
    with obs_trace.span(
        "pack.boruvka", n=n, iterations=num_trees, acct="packing:boruvka"
    ):
        for _iteration in range(num_trees):
            cost = uses / multiplicity
            if ma_backend == "compiled":
                mst_ids = engine.original_rows(
                    compiled_boruvka_rows(
                        engine,
                        lower_edge_cost(engine, cost),
                        label="packing:boruvka",
                    )
                )
            else:
                mst_keys = boruvka_mst(
                    engine,
                    edge_cost=lambda e: cost[row_of[e]],
                    label="packing:boruvka",
                )
                mst_ids = np.fromiter(
                    sorted(row_of[key] for key in mst_keys),
                    dtype=np.int64,
                    count=len(mst_keys),
                )
            uses[mst_ids] += 1
            signature = frozenset(mst_ids.tolist())
            if signature in seen:
                duplicates += 1
                continue
            seen.add(signature)
            # Insert tree edges in label-space edge_key order, so the BFS
            # adjacency sequences (and hence every preorder downstream)
            # follow the labels, not the index order.
            chosen = sorted(
                mst_ids.tolist(), key=lambda e: _edge_order_key(canonical[e])
            )
            adjacency: dict[int, list[int]] = {v: [] for v in range(n)}
            for e in chosen:
                u, v = int(eu[e]), int(ev[e])
                adjacency[u].append(v)
                adjacency[v].append(u)
            trees.append(adjacency)
            chosen_arr = np.asarray(chosen, dtype=np.int64)
            tree_edges.append((eu[chosen_arr], ev[chosen_arr]))
    return TreePacking(
        trees=trees,
        sampled=sampled,
        sampling_probability=probability,
        approx_cut_value=approx_cut_value,
        ma_rounds=acct.total,
        duplicates_removed=duplicates,
        tree_edge_arrays=tree_edges,
    )


# ----------------------------------------------------------------------
# Many-graph batched packing (the ``minimum_cut_many`` sweep path)
# ----------------------------------------------------------------------
@dataclass
class ManyPacking:
    """Per-graph packings plus the flat arrays the sweep pipeline reuses.

    ``tree_edge_arrays[g]`` holds one ``(edge_u, edge_v)`` pair per packed
    tree of graph ``g``, in the exact insertion order the adjacency
    mappings were built with -- what
    :func:`~repro.kernel.forest.stacked_tree_arrays` consumes to build
    all BFS/Euler kernels in one pass.
    """

    packings: list[TreePacking]
    accountants: list[RoundAccountant]
    tree_edge_arrays: list[list[tuple[np.ndarray, np.ndarray]]]


def pack_trees_many(
    graphs: "list[CSRGraph]",
    seeds: "list[int]",
    num_trees: int | None = None,
    accountants: "list[RoundAccountant] | None" = None,
    ma_backend: str | None = None,
) -> ManyPacking:
    """Pack spanning trees for many CSR graphs in one vectorized sweep.

    Produces, for every graph, the *bit-identical* :class:`TreePacking`
    (trees, sampling decisions, duplicate bookkeeping, round charges)
    that ``pack_trees(graph, seed)`` would -- asserted by the test
    suite -- but runs the greedy Boruvka iterations over one
    concatenated edge table: per phase one component labelling, one
    masked ``minimum.at``, one vectorized hook-and-jump union across
    *all* graphs at once.  Identity holds because every per-graph
    decision (cost ties via the ``(cost, str)`` edge order, winner
    selection per component, phase/charge bookkeeping, duplicate-tree
    dedup) depends only on within-graph comparisons, which the
    concatenated order preserves; the per-graph random draws (sampling
    regime) happen in the per-graph preamble with the same ``Random``
    streams the serial path uses.
    """
    if not graphs:
        return ManyPacking(packings=[], accountants=[], tree_edge_arrays=[])
    count_of = len(graphs)
    accts = (
        list(accountants)
        if accountants is not None
        else [RoundAccountant() for _ in range(count_of)]
    )

    if resolve_ma_backend(ma_backend) == "closure":
        # Reference mode: pack each graph serially on the closure engine
        # (the fused path below *is* the array backend).
        packings = [
            pack_trees(
                graph, seed=seed, num_trees=num_trees, accountant=acct,
                approx_cut_value=None, ma_backend="closure",
            )
            for graph, seed, acct in zip(graphs, seeds, accts)
        ]
        return ManyPacking(
            packings=packings,
            accountants=accts,
            tree_edge_arrays=[p.tree_edge_arrays for p in packings],
        )

    # Per-graph preamble: approx min-cut, sampling regime, edge-order
    # ranks -- identical, call for call, to ``pack_trees``.
    states: list[dict] = []
    for graph, seed, acct in zip(graphs, seeds, accts):
        n = graph.n
        if n < 2:
            raise ValueError("need at least two nodes to pack trees")
        rng = random.Random(seed)
        count = num_trees if num_trees is not None else default_tree_count(n)

        from repro.baselines.stoer_wagner import stoer_wagner_min_cut

        with obs_trace.span(
            "pack.approx_min_cut", n=n, acct="packing:approx-min-cut"
        ):
            approx_cut_value, _partition = stoer_wagner_min_cut(graph)
        acct.charge(log2ceil(n) ** 2, "packing:approx-min-cut")

        target = 24.0 * max(1.0, math.log(n))
        packing_graph = graph
        sampled = False
        probability: float | None = None
        if approx_cut_value > 2 * target:
            with obs_trace.span(
                "pack.sampling", n=n, acct="packing:sampling"
            ):
                probability = min(1.0, target / approx_cut_value)
                for _attempt in range(6):
                    candidate = _sample_multiplicities_csr(
                        graph, probability, rng
                    )
                    if candidate.is_connected():
                        packing_graph = candidate
                        sampled = True
                        break
                    probability = min(1.0, 2 * probability)
            acct.charge(1, "packing:sampling")

        eu, ev = packing_graph.edge_u, packing_graph.edge_v
        multiplicity = np.maximum(packing_graph.edge_w, 1e-12)
        node_labels = graph.node_labels()
        canonical = [
            edge_key(node_labels[u], node_labels[v])
            for u, v in zip(eu.tolist(), ev.tolist())
        ]
        labels = np.array([str(pair) for pair in canonical], dtype=np.str_)
        str_rank = np.empty(len(labels), dtype=np.int64)
        str_rank[np.argsort(labels)] = np.arange(len(labels), dtype=np.int64)
        # Full-edge canonical order; restricting it to any tree's edge set
        # reproduces the serial per-tree ``sorted(..., key=edge_order_key)``
        # (the keys are distinct, so sorting a subset preserves the order).
        canon_order = np.array(
            sorted(range(len(canonical)), key=lambda e: _edge_order_key(canonical[e])),
            dtype=np.int64,
        )
        states.append(
            dict(
                n=n, count=count, eu=eu, ev=ev, mult=multiplicity,
                eu_list=eu.tolist(), ev_list=ev.tolist(),
                str_rank=str_rank, canon_order=canon_order,
                approx=approx_cut_value, sampled=sampled,
                probability=probability, trees=[], tree_edges=[],
                seen=set(), duplicates=0, phases=log2ceil(n) + 1,
            )
        )

    # Concatenated edge table (per-graph node blocks never interact: a
    # component can only ever contain nodes of one graph).
    node_off = np.zeros(count_of + 1, dtype=np.int64)
    edge_off = np.zeros(count_of + 1, dtype=np.int64)
    for i, st in enumerate(states):
        node_off[i + 1] = node_off[i] + st["n"]
        edge_off[i + 1] = edge_off[i] + len(st["eu"])
    all_eu = np.concatenate(
        [st["eu"] + node_off[i] for i, st in enumerate(states)]
    )
    all_ev = np.concatenate(
        [st["ev"] + node_off[i] for i, st in enumerate(states)]
    )
    all_mult = np.concatenate([st["mult"] for st in states])
    all_rank = np.concatenate([st["str_rank"] for st in states])
    gid = np.repeat(np.arange(count_of), np.diff(edge_off))
    uses = np.zeros(len(all_eu), dtype=np.int64)
    n_total = int(node_off[-1])
    m_total = len(all_eu)
    sentinel = m_total
    counts = np.array([st["count"] for st in states], dtype=np.int64)
    phases_arr = np.array([st["phases"] for st in states], dtype=np.int64)

    for iteration in range(int(counts.max(initial=0))):
        with obs_trace.span(
            "pack.boruvka",
            iteration=iteration,
            graphs=count_of,
            acct="packing:boruvka",
        ):
            iter_active = counts > iteration
            cost = uses / all_mult
            # Graph-major positions: within each graph the (cost, str) order
            # is exactly the serial per-graph lexsort, and per-component
            # minima never compare positions across graphs.
            order = np.lexsort((all_rank, cost, gid))
            position = np.empty(m_total, dtype=np.int64)
            position[order] = np.arange(m_total, dtype=np.int64)

            comp = np.arange(n_total, dtype=np.int64)
            in_tree = np.zeros(m_total, dtype=bool)
            running = iter_active.copy()
            boruvka_phases = np.zeros(count_of, dtype=np.int64)
            for phase in range(int(phases_arr[iter_active].max(initial=0))):
                running &= phase < phases_arr
                if not running.any():
                    break
                boruvka_phases += running  # serial charges before its breaks
                cu = comp[all_eu]
                cv = comp[all_ev]
                outgoing = (cu != cv) & running[gid]
                og_counts = np.bincount(gid[outgoing], minlength=count_of)
                running &= og_counts > 0  # per-graph "no outgoing" break
                if not outgoing.any():
                    continue
                best = np.full(n_total, sentinel, dtype=np.int64)
                np.minimum.at(best, cu[outgoing], position[outgoing])
                np.minimum.at(best, cv[outgoing], position[outgoing])
                # Serial dedups winners via np.unique and re-checks for fresh
                # edges, but an outgoing edge can never already be in a tree
                # (its endpoints would share a component), so the duplicate
                # winners are harmless here (idempotent scatter, commutative
                # merge) and the serial "no fresh edges" break is dead code.
                fresh = order[best[best < sentinel]]
                in_tree[fresh] = True
                comp = merge_components(comp, all_eu[fresh], all_ev[fresh])
            # Inactive graphs selected no edges this iteration, so one global
            # add updates exactly the serial per-graph ``uses[mst_ids] += 1``.
            uses += in_tree
            for g in np.nonzero(iter_active)[0]:
                accts[g].charge(int(boruvka_phases[g]), "packing:boruvka")
                st = states[g]
                local_mask = in_tree[int(edge_off[g]):int(edge_off[g + 1])]
                # The boolean mask is a faithful stand-in for the serial
                # frozenset-of-edge-ids signature: equal masks <=> equal sets.
                signature = local_mask.tobytes()
                if signature in st["seen"]:
                    st["duplicates"] += 1
                    continue
                st["seen"].add(signature)
                chosen_local = st["canon_order"][local_mask[st["canon_order"]]]
                eu_l, ev_l = st["eu_list"], st["ev_list"]
                adjacency: dict[int, list[int]] = {v: [] for v in range(st["n"])}
                for e in chosen_local.tolist():
                    u, v = eu_l[e], ev_l[e]
                    adjacency[u].append(v)
                    adjacency[v].append(u)
                st["trees"].append(adjacency)
                st["tree_edges"].append((st["eu"][chosen_local], st["ev"][chosen_local]))

    packings = [
        TreePacking(
            trees=st["trees"],
            sampled=st["sampled"],
            sampling_probability=st["probability"],
            approx_cut_value=st["approx"],
            ma_rounds=accts[g].total,
            duplicates_removed=st["duplicates"],
        )
        for g, st in enumerate(states)
    ]
    return ManyPacking(
        packings=packings,
        accountants=accts,
        tree_edge_arrays=[st["tree_edges"] for st in states],
    )


# ``_boruvka_csr``/``_merge_components`` used to live here; the compiled
# Minor-Aggregation engine (repro.ma.compiled.compiled_boruvka_rows) now
# runs the same decision-identical sequence as charged engine rounds, and
# the vectorized union moved to repro.graphs.csr.merge_components.
