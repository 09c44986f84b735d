"""Array-backed tree kernel: exact equivalence with the pure-Python reference.

Every kernel-backed primitive -- ``cover_values``, ``cut_matrix``,
``two_respecting_oracle``, ``lca``, ``is_ancestor``, ``subtree_nodes``,
``subtree_sizes``, ``cut_partition``, ``partition_cut_weight`` -- is run
against the reference implementations in ``tests/reference.py`` on seeded
random trees and graphs, including mixed node types, weight-zero edges,
and degenerate shapes.  Integer weights must agree *bit for bit*; float
weights to 1e-9.
"""

from __future__ import annotations

import itertools
import random

import networkx as nx
import numpy as np
import pytest

from repro.core.cut_values import (
    cover_values,
    cut_matrix,
    cut_partition,
    pair_cover_matrix,
    partition_cut_weight,
    two_respecting_oracle,
)
from repro.core.one_respecting import one_respecting_cuts_fast
from repro.graphs import random_connected_gnm, random_spanning_tree
from repro.kernel import GraphArrays, TreeKernel
from repro.trees.rooted import RootedTree
from tests import reference

# ---------------------------------------------------------------------------
# Case generators
# ---------------------------------------------------------------------------


def _mixed_name(v: int, rng: random.Random) -> object:
    """Map some integer nodes to strings/tuples (mixed hashable types)."""
    kind = rng.randrange(3)
    if kind == 0:
        return v
    if kind == 1:
        return f"node-{v}"
    return ("virt", v)


def random_case(
    seed: int,
    mixed_types: bool = False,
    zero_weights: bool = False,
    float_weights: bool = False,
) -> tuple[nx.Graph, RootedTree]:
    """A seeded connected weighted graph plus a rooted spanning tree."""
    rng = random.Random(seed)
    n = rng.randint(4, 48)
    m = rng.randint(n, 4 * n)
    graph = random_connected_gnm(n, m, seed=seed, weight_high=17)
    if float_weights:
        for _u, _v, data in graph.edges(data=True):
            data["weight"] = round(rng.uniform(0.1, 9.0), 3)
    if zero_weights:
        edges = list(graph.edges())
        for u, v in rng.sample(edges, max(1, len(edges) // 6)):
            graph[u][v]["weight"] = 0
    tree_graph = random_spanning_tree(graph, seed=seed + 1)
    if mixed_types:
        mapping = {v: _mixed_name(v, rng) for v in graph.nodes()}
        graph = nx.relabel_nodes(graph, mapping)
        tree_graph = nx.relabel_nodes(tree_graph, mapping)
    root = min(graph.nodes(), key=lambda v: (type(v).__name__, str(v)))
    return graph, RootedTree(tree_graph, root)


CASE_SEEDS = list(range(10))


def case_variants():
    for seed in CASE_SEEDS:
        yield pytest.param(seed, False, False, id=f"plain-{seed}")
    for seed in CASE_SEEDS[:5]:
        yield pytest.param(seed, True, False, id=f"mixed-{seed}")
    for seed in CASE_SEEDS[:5]:
        yield pytest.param(seed, False, True, id=f"zerow-{seed}")
    for seed in CASE_SEEDS[:3]:
        yield pytest.param(seed, True, True, id=f"mixed-zerow-{seed}")


# ---------------------------------------------------------------------------
# Tree primitives
# ---------------------------------------------------------------------------


class TestTreePrimitives:
    @pytest.mark.parametrize("seed,mixed,zerow", case_variants())
    def test_lca_is_ancestor_subtrees(self, seed, mixed, zerow):
        _graph, tree = random_case(seed, mixed_types=mixed, zero_weights=zerow)
        kernel = tree.kernel
        rng = random.Random(seed)
        nodes = list(tree.order)
        pairs = [
            (rng.choice(nodes), rng.choice(nodes)) for _ in range(80)
        ] + [(n, n) for n in nodes[:5]]
        for u, v in pairs:
            assert kernel.lca(u, v) == reference.lca(tree, u, v)
            assert kernel.is_ancestor(u, v) == reference.is_ancestor(tree, u, v)
            assert kernel.is_ancestor(v, u) == reference.is_ancestor(tree, v, u)
            assert tree.lca(u, v) == reference.lca(tree, u, v)
        for node in nodes:
            assert kernel.subtree_nodes(node) == reference.subtree_nodes(tree, node)
        assert kernel.subtree_sizes() == reference.subtree_sizes(tree)
        assert tree.subtree_sizes() == reference.subtree_sizes(tree)

    @pytest.mark.parametrize("seed,mixed,zerow", case_variants())
    def test_vectorized_lca_matches_scalar(self, seed, mixed, zerow):
        _graph, tree = random_case(seed, mixed_types=mixed, zero_weights=zerow)
        kernel = tree.kernel
        rng = random.Random(seed + 7)
        n = kernel.n
        us = np.array([rng.randrange(n) for _ in range(200)])
        vs = np.array([rng.randrange(n) for _ in range(200)])
        lcas = kernel.lca_indices(us, vs)
        for u, v, l in zip(us, vs, lcas):
            assert kernel.lca_idx(int(u), int(v)) == int(l)

    def test_euler_intervals_partition_preorder(self):
        _graph, tree = random_case(3)
        kernel = tree.kernel
        # tout - tin is the subtree size; the root spans everything.
        assert kernel.tin[0] == 0 and kernel.tout[0] == kernel.n
        sizes = tree.subtree_sizes()
        for node, size in sizes.items():
            i = kernel.index[node]
            assert int(kernel.tout[i] - kernel.tin[i]) == size

    def test_single_node_and_path_trees(self):
        lone = nx.Graph()
        lone.add_node("only")
        tree = RootedTree(lone, "only")
        kernel = tree.kernel
        assert kernel.subtree_nodes("only") == ["only"]
        assert kernel.lca("only", "only") == "only"

        path = RootedTree(nx.path_graph(9), 0)
        kernel = path.kernel
        for u, v in itertools.combinations(range(9), 2):
            assert kernel.lca(u, v) == min(u, v)
            assert kernel.is_ancestor(u, v) == (u <= v)


# ---------------------------------------------------------------------------
# Cover / cut values
# ---------------------------------------------------------------------------


class TestCoverAndCuts:
    @pytest.mark.parametrize("seed,mixed,zerow", case_variants())
    def test_cover_values_bit_identical(self, seed, mixed, zerow):
        graph, tree = random_case(seed, mixed_types=mixed, zero_weights=zerow)
        assert cover_values(graph, tree) == reference.cover_values(graph, tree)

    @pytest.mark.parametrize("seed,mixed,zerow", case_variants())
    def test_pair_cover_matrix_bit_identical(self, seed, mixed, zerow):
        graph, tree = random_case(seed, mixed_types=mixed, zero_weights=zerow)
        edges_fast, matrix_fast = pair_cover_matrix(graph, tree)
        edges_ref, matrix_ref = reference.pair_cover_matrix(graph, tree)
        assert edges_fast == edges_ref
        assert np.array_equal(matrix_fast, matrix_ref)

    @pytest.mark.parametrize("seed,mixed,zerow", case_variants())
    def test_cut_matrix_and_oracle(self, seed, mixed, zerow):
        graph, tree = random_case(seed, mixed_types=mixed, zero_weights=zerow)
        edges_fast, cuts_fast = cut_matrix(graph, tree)
        oracle_fast = two_respecting_oracle(graph, tree)
        edges_ref, cuts_ref = reference.cut_matrix(graph, tree)
        oracle_ref = reference.two_respecting_oracle(graph, tree)
        assert edges_fast == edges_ref
        assert np.array_equal(cuts_fast, cuts_ref)
        assert oracle_fast == oracle_ref

    @pytest.mark.parametrize("seed", CASE_SEEDS[:5])
    def test_float_weights_close(self, seed):
        graph, tree = random_case(seed, float_weights=True)
        fast = cover_values(graph, tree)
        _, matrix_fast = pair_cover_matrix(graph, tree)
        expected = reference.cover_values(graph, tree)
        _, matrix_ref = reference.pair_cover_matrix(graph, tree)
        assert fast.keys() == expected.keys()
        for edge in expected:
            assert fast[edge] == pytest.approx(expected[edge], abs=1e-9)
        np.testing.assert_allclose(matrix_fast, matrix_ref, atol=1e-9)

    @pytest.mark.parametrize("seed,mixed,zerow", case_variants())
    def test_one_respecting_fast_matches(self, seed, mixed, zerow):
        graph, tree = random_case(seed, mixed_types=mixed, zero_weights=zerow)
        fast = one_respecting_cuts_fast(graph, tree)
        assert fast == reference.one_respecting_cuts(graph, tree)

    def test_self_loop_is_ignored(self):
        graph, tree = random_case(2)
        node = next(iter(graph.nodes()))
        graph.add_edge(node, node, weight=5)
        assert cover_values(graph, tree) == reference.cover_values(graph, tree)

    def test_shared_graph_arrays_match_per_call_extraction(self):
        graph, tree = random_case(4)
        arrays = GraphArrays.from_graph(graph)
        assert cover_values(graph, tree, arrays=arrays) == cover_values(
            graph, tree
        )
        _, with_arrays = pair_cover_matrix(graph, tree, arrays=arrays)
        _, without = pair_cover_matrix(graph, tree)
        assert np.array_equal(with_arrays, without)


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


class TestPartitions:
    @pytest.mark.parametrize("seed,mixed,zerow", case_variants())
    def test_cut_partition_all_single_edges(self, seed, mixed, zerow):
        _graph, tree = random_case(seed, mixed_types=mixed, zero_weights=zerow)
        for edge in tree.edges():
            assert cut_partition(tree, (edge,)) == reference.cut_partition(
                tree, (edge,)
            )

    @pytest.mark.parametrize("seed,mixed,zerow", case_variants())
    def test_cut_partition_edge_pairs(self, seed, mixed, zerow):
        _graph, tree = random_case(seed, mixed_types=mixed, zero_weights=zerow)
        rng = random.Random(seed)
        edges = list(tree.edges())
        pairs = (
            [tuple(rng.sample(edges, 2)) for _ in range(40)]
            if len(edges) >= 2
            else []
        )
        for pair in pairs:
            assert cut_partition(tree, pair) == reference.cut_partition(tree, pair)

    @pytest.mark.parametrize("seed,mixed,zerow", case_variants())
    def test_partition_cut_weight_arrays(self, seed, mixed, zerow):
        graph, tree = random_case(seed, mixed_types=mixed, zero_weights=zerow)
        arrays = GraphArrays.from_graph(graph)
        rng = random.Random(seed)
        nodes = list(graph.nodes())
        for _ in range(10):
            side = frozenset(rng.sample(nodes, rng.randint(1, len(nodes) - 1)))
            fast = partition_cut_weight(graph, side, arrays=arrays)
            assert fast == reference.partition_cut_weight(graph, side)


# ---------------------------------------------------------------------------
# Reported metrics must not depend on how the tree primitives are computed
# ---------------------------------------------------------------------------


class TestScheduleParity:
    @pytest.mark.parametrize("seed", range(4))
    def test_hld_construction_schedule_identical(self, seed, monkeypatch):
        """The merge schedule (iterations, part counts, charged rounds) is
        a reported paper metric; it must be bit-identical when the tree's
        primitives come from the parent-walk reference instead."""
        from repro.trees.hld_construction import build_hld_distributed
        from tests.conftest import random_tree

        fast = build_hld_distributed(random_tree(50, seed=seed))
        walked = random_tree(50, seed=seed)
        for name in ("lca", "is_ancestor", "subtree_nodes"):
            primitive = getattr(reference, name)
            monkeypatch.setattr(
                walked, name, lambda *args, f=primitive: f(walked, *args)
            )
        monkeypatch.setattr(
            walked, "subtree_sizes", lambda: reference.subtree_sizes(walked)
        )
        expected = build_hld_distributed(walked)
        assert fast.iterations == expected.iterations
        assert fast.part_counts == expected.part_counts
        assert fast.ma_rounds == expected.ma_rounds


# ---------------------------------------------------------------------------
# Speed sanity (coarse; the real numbers live in benchmarks/)
# ---------------------------------------------------------------------------


def test_kernel_is_faster_on_moderate_instance():
    """The kernel must clearly beat the path-accumulation reference.

    A coarse 2x bar at n=192 keeps this robust under CI noise.
    """
    import time

    graph = random_connected_gnm(192, 768, seed=11, weight_high=30)
    tree = RootedTree(random_spanning_tree(graph, seed=12), 0)
    tree.kernel  # build outside the timed region: shared by real callers

    start = time.perf_counter()
    fast = two_respecting_oracle(graph, tree)
    fast_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    expected = reference.two_respecting_oracle(graph, tree)
    reference_elapsed = time.perf_counter() - start
    assert fast == expected
    assert fast_elapsed < reference_elapsed / 2, (fast_elapsed, reference_elapsed)
