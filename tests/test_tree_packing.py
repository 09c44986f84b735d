"""Tree packing (Theorem 12): spanning trees, the 2-respecting property,
sampling regime, and round charging.

Packed trees are index-space adjacency mappings ``{node: [neighbors]}``.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.accounting import RoundAccountant
from repro.baselines import stoer_wagner_min_cut
from repro.core.tree_packing import (
    _exact_min_cut_value,
    default_tree_count,
    pack_trees,
)
from repro.graphs import (
    CSR_FAMILY_BUILDERS,
    CSRGraph,
    csr_delaunay_planar_graph,
    csr_grid_graph,
    csr_planted_cut_graph,
    csr_random_connected_gnm,
)


def tree_edges(tree):
    return [(u, v) for u in tree for v in tree[u] if u < v]


def min_cut_crossings(tree, side):
    return sum(1 for u, v in tree_edges(tree) if (u in side) != (v in side))


class TestPackingBasics:
    @pytest.mark.parametrize("seed", range(4))
    def test_trees_are_spanning(self, seed):
        graph = csr_random_connected_gnm(30, 75, seed=seed)
        packing = pack_trees(graph, seed=seed)
        for tree in packing.trees:
            assert nx.is_tree(nx.Graph(tree_edges(tree)))
            assert set(tree) == set(range(graph.n))
            assert all(graph.has_edge(u, v) for u, v in tree_edges(tree))

    def test_tree_weights_copied_from_graph(self):
        graph = csr_random_connected_gnm(20, 50, seed=5)
        packing = pack_trees(graph, seed=5)
        # Trees carry no weights of their own: each is a set of rows of
        # the graph's edge table, listed in ``tree_edge_arrays``.
        for tree, (u_arr, v_arr) in zip(packing.trees, packing.tree_edge_arrays):
            rows = {tuple(sorted(p)) for p in zip(u_arr.tolist(), v_arr.tolist())}
            assert rows == set(tree_edges(tree))
            assert all(graph.has_edge(u, v) for u, v in rows)

    def test_count_is_theta_log_n(self):
        assert default_tree_count(1000) <= 50
        assert default_tree_count(16) < default_tree_count(4096)

    def test_num_trees_override(self):
        graph = csr_random_connected_gnm(18, 40, seed=1)
        packing = pack_trees(graph, seed=1, num_trees=5)
        assert len(packing.trees) <= 5

    def test_rejects_single_node(self):
        graph = CSRGraph(1, [], [])
        with pytest.raises(ValueError):
            pack_trees(graph)

    def test_trees_are_distinct(self):
        graph = csr_random_connected_gnm(25, 80, seed=2)
        packing = pack_trees(graph, seed=2)
        signatures = [frozenset(tree_edges(t)) for t in packing.trees]
        assert len(signatures) == len(set(signatures))


class TestTheorem12Property:
    @pytest.mark.parametrize("seed", range(8))
    def test_min_cut_two_respects_some_tree(self, seed):
        """The headline property: some packed tree crosses the min cut <= 2."""
        graph = csr_random_connected_gnm(28, 70, seed=seed + 10, weight_high=30)
        _value, (side, _other) = stoer_wagner_min_cut(graph)
        packing = pack_trees(graph, seed=seed)
        crossings = [min_cut_crossings(t, side) for t in packing.trees]
        assert min(crossings) <= 2, (seed, crossings)

    @pytest.mark.parametrize("seed", range(4))
    def test_planted_cut_two_respected(self, seed):
        graph = csr_planted_cut_graph(12, 14, cross_edges=3, seed=seed)
        left, _right = graph.meta["planted_partition"]
        packing = pack_trees(graph, seed=seed)
        crossings = [min_cut_crossings(t, left) for t in packing.trees]
        assert min(crossings) <= 2

    def test_grid_family(self):
        graph = csr_grid_graph(5, 5, seed=3)
        _value, (side, _other) = stoer_wagner_min_cut(graph)
        packing = pack_trees(graph, seed=3)
        assert min(min_cut_crossings(t, side) for t in packing.trees) <= 2


class TestSamplingRegime:
    def test_heavy_graph_triggers_sampling(self):
        """Large min-cut -> Karger sampling (regime B)."""
        graph = csr_planted_cut_graph(
            10, 10, cross_edges=8, cross_weight=400, inside_weight=2000, seed=1
        )
        packing = pack_trees(graph, seed=1)
        assert packing.approx_cut_value > 1000
        assert packing.sampled
        assert 0 < packing.sampling_probability <= 1

    def test_sampled_packing_still_two_respects(self):
        graph = csr_planted_cut_graph(
            10, 12, cross_edges=5, cross_weight=300, inside_weight=3000, seed=2
        )
        left, _right = graph.meta["planted_partition"]
        packing = pack_trees(graph, seed=2)
        assert packing.sampled
        assert min(min_cut_crossings(t, left) for t in packing.trees) <= 2

    def test_light_graph_skips_sampling(self):
        graph = csr_random_connected_gnm(25, 55, seed=3, weight_high=3)
        packing = pack_trees(graph, seed=3)
        assert not packing.sampled
        assert packing.sampling_probability is None


class TestAccounting:
    def test_boruvka_rounds_charged(self):
        graph = csr_random_connected_gnm(24, 60, seed=4)
        acct = RoundAccountant()
        packing = pack_trees(graph, seed=4, accountant=acct)
        labels = acct.by_label()
        assert labels.get("packing:boruvka", 0) > 0
        assert packing.ma_rounds >= labels["packing:boruvka"]

    def test_deterministic_given_seed(self):
        graph = csr_random_connected_gnm(20, 50, seed=6)
        a = pack_trees(graph, seed=9)
        b = pack_trees(graph, seed=9)
        sigs = lambda p: [frozenset(tree_edges(t)) for t in p.trees]
        assert sigs(a) == sigs(b)


@st.composite
def _weighted_multigraph(draw, integer=True):
    """A connected graph on 2..14 nodes: a random spanning tree plus
    random extra edges, parallel edges and self-loops included (the CSR
    constructor merges parallels by weight sum)."""
    n = draw(st.integers(min_value=2, max_value=14))
    parents = [draw(st.integers(min_value=0, max_value=c - 1)) for c in range(1, n)]
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n
    ))
    u = parents + [a for a, _b in extra]
    v = list(range(1, n)) + [b for _a, b in extra]
    if integer:
        weight = st.integers(min_value=0, max_value=10**6)
    else:
        weight = st.floats(min_value=1e-3, max_value=1e6)
    weights = draw(st.lists(weight, min_size=len(u), max_size=len(u)))
    return CSRGraph(n, u, v, weights)


_PROPERTY = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestExactMinCutValue:
    """The packing preamble's λ (Nagamochi-Ono-Ibaraki contraction) is
    Stoer-Wagner's value."""

    @_PROPERTY
    @given(_weighted_multigraph())
    def test_integer_weights_match_stoer_wagner_exactly(self, graph):
        assert _exact_min_cut_value(graph) == stoer_wagner_min_cut(graph)[0]

    @_PROPERTY
    @given(_weighted_multigraph(integer=False))
    def test_float_weights_match_within_rounding(self, graph):
        expected = stoer_wagner_min_cut(graph)[0]
        assert _exact_min_cut_value(graph) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_tiny_graphs(self, n, seed):
        rng = np.random.default_rng(seed)
        u, v = np.triu_indices(n, k=1)
        keep = rng.random(len(u)) < 0.8
        keep[: n - 1] = True  # (0, 1) and, for n = 3, (0, 2) span
        graph = CSRGraph(
            n, np.append(u[keep], 0), np.append(v[keep], 0),
            rng.integers(0, 9, keep.sum() + 1),
        )
        assert _exact_min_cut_value(graph) == stoer_wagner_min_cut(graph)[0]

    @pytest.mark.parametrize("family", sorted(CSR_FAMILY_BUILDERS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_generator_families(self, family, seed):
        for n in (12, 40):
            graph = CSR_FAMILY_BUILDERS[family](n, seed)
            assert _exact_min_cut_value(graph) == stoer_wagner_min_cut(graph)[0]

    @pytest.mark.parametrize(
        "graph",
        [
            csr_random_connected_gnm(120, 360, seed=3),
            csr_grid_graph(9, 12, seed=3),
            csr_delaunay_planar_graph(100, seed=3),
        ],
        ids=["gnm", "grid", "delaunay"],
    )
    def test_pack_trees_records_stoer_wagner_value(self, graph):
        packing = pack_trees(graph, seed=3)
        assert packing.approx_cut_value == stoer_wagner_min_cut(graph)[0]
        assert type(packing.approx_cut_value) is float

    def test_disconnected_graph_rejected(self):
        graph = CSRGraph(4, [0, 2], [1, 3], [5, 5])
        with pytest.raises(ValueError, match="connected"):
            pack_trees(graph)
