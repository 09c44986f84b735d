"""E3 -- Theorem 12 tree packing: Θ(log n) trees, 2-respecting property."""

from repro.core.tree_packing import pack_trees
from repro.experiments import e03_tree_packing
from repro.graphs import csr_random_connected_gnm


def test_e03_pack_trees(benchmark):
    graph = csr_random_connected_gnm(48, 120, seed=7, weight_high=25)
    packing = benchmark(lambda: pack_trees(graph, seed=7))
    assert packing.trees


def test_e03_claim_shape():
    outcome = e03_tree_packing.run(quick=True)
    print()
    print(outcome.summary())
    assert outcome.holds, outcome.observed
