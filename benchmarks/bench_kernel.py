"""Kernel micro-benchmarks, pytest-benchmark style.

Run directly (the bench files are not collected by the default test run)::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernel.py -q

The kernel is the only implementation of these primitives; its
correctness reference lives in ``tests/reference.py`` and is exercised by
``tests/test_kernel.py``.
"""

from repro.core.cut_values import cover_values, two_respecting_oracle
from repro.graphs import random_connected_gnm, random_spanning_tree
from repro.trees.rooted import RootedTree

N, M, SEED = 512, 2048, 7


def _instance():
    graph = random_connected_gnm(N, M, seed=SEED, weight_high=50)
    tree = RootedTree(random_spanning_tree(graph, seed=SEED + 1), 0)
    return graph, tree


def test_kernel_cover_values(benchmark):
    graph, tree = _instance()
    benchmark(lambda: cover_values(graph, tree))


def test_kernel_oracle(benchmark):
    graph, tree = _instance()
    benchmark(lambda: two_respecting_oracle(graph, tree))
