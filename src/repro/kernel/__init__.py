"""Array-backed tree kernel (flat indices, Euler tours, vectorized covers).

``TreeKernel`` is the per-tree index structure; ``cut_kernel`` holds the
vectorized cover/cut computations built on it; ``forest`` builds
BFS/Euler arrays for stacks of same-size trees without per-tree Python
loops; ``batched`` solves the 2-respecting oracles of such stacks in one
numpy pass (``OracleJob`` / ``batched_two_respecting_oracle_many``), for
the packed trees of one graph or of a whole sweep of graphs.  The kernel
is the only implementation; the pure-Python references it is tested
against live in ``tests/reference.py``.
"""

from repro.kernel.batched import (
    OracleJob,
    batched_two_respecting_oracle_many,
    env_batch_bytes,
)
from repro.kernel.cut_kernel import (
    GraphArrays,
    cover_values_kernel,
    cut_partition_kernel,
    pair_cover_matrix_kernel,
    partition_cut_weight_arrays,
)
from repro.kernel.forest import TreeStack, stacked_tree_arrays
from repro.kernel.tree_kernel import TreeKernel

__all__ = [
    "GraphArrays",
    "OracleJob",
    "batched_two_respecting_oracle_many",
    "env_batch_bytes",
    "TreeKernel",
    "TreeStack",
    "stacked_tree_arrays",
    "cover_values_kernel",
    "cut_partition_kernel",
    "pair_cover_matrix_kernel",
    "partition_cut_weight_arrays",
]
