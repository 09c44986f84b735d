"""Pure-Python reference implementations the production kernels are tested against.

The package has one implementation of every tree/cut primitive: the
array-backed kernel (:mod:`repro.kernel`).  The straightforward versions
below -- parent-pointer walks, explicit path accumulation, subtree set
algebra, exhaustive 2^n cut enumeration, an all-sources BFS diameter --
are slow but obviously correct, so the test suite checks the kernel
against them directly.

Graphs are networkx graphs (any hashable labels, weight attribute
defaulting to 1) and trees are :class:`~repro.trees.rooted.RootedTree`
instances; only the tree's ``parent``/``children``/``depth``/``order``
indices are read, never its kernel.
"""

from __future__ import annotations

import itertools

import networkx as nx
import numpy as np

from repro.core.cut_values import CutCandidate
from repro.errors import GraphValidationError
from repro.graphs import CSRGraph
from repro.trees.rooted import RootedTree, edge_key

#: largest graph :func:`exhaustive_min_cut` will enumerate (2^(n-1) cuts).
EXHAUSTIVE_MAX_NODES = 12


# ----------------------------------------------------------------------
# Rooted-tree primitives (parent-pointer walks)
# ----------------------------------------------------------------------
def lca(tree: RootedTree, u, v):
    """Lowest common ancestor by walking both nodes up to equal depth."""
    while tree.depth[u] > tree.depth[v]:
        u = tree.parent[u]
    while tree.depth[v] > tree.depth[u]:
        v = tree.parent[v]
    while u != v:
        u = tree.parent[u]
        v = tree.parent[v]
    return u


def is_ancestor(tree: RootedTree, ancestor, node) -> bool:
    """``ancestor`` lies on the root-to-``node`` path (inclusive)."""
    if tree.depth[ancestor] > tree.depth[node]:
        return False
    while tree.depth[node] > tree.depth[ancestor]:
        node = tree.parent[node]
    return node == ancestor


def subtree_nodes(tree: RootedTree, node) -> list:
    """Descendants of ``node`` (inclusive) in stack preorder."""
    result = []
    stack = [node]
    while stack:
        current = stack.pop()
        result.append(current)
        stack.extend(tree.children[current])
    return result


def subtree_sizes(tree: RootedTree) -> dict:
    """|desc(v)| for every node, accumulated bottom-up."""
    sizes = {node: 1 for node in tree.order}
    for node in reversed(tree.order):
        for child in tree.children[node]:
            sizes[node] += sizes[child]
    return sizes


def path_edges(tree: RootedTree, u, v) -> list:
    """Tree edges on the unique u-v path."""
    meet = lca(tree, u, v)
    edges = []
    for endpoint in (u, v):
        while endpoint != meet:
            edges.append(tree.edge_of(endpoint))
            endpoint = tree.parent[endpoint]
    return edges


# ----------------------------------------------------------------------
# Cover and cut values (explicit path accumulation)
# ----------------------------------------------------------------------
def _weighted_edges(graph: nx.Graph):
    for u, v, data in graph.edges(data=True):
        weight = data.get("weight", 1)
        if weight != 0 and u != v:
            yield u, v, weight


def cover_values(graph: nx.Graph, tree: RootedTree) -> dict:
    """``Cov(e)`` by adding each edge's weight along its tree path."""
    cov = {edge: 0.0 for edge in tree.edges()}
    for u, v, weight in _weighted_edges(graph):
        for edge in path_edges(tree, u, v):
            cov[edge] += weight
    return cov


def one_respecting_cuts(graph: nx.Graph, tree: RootedTree) -> dict:
    """``Cut(e)`` via the +w/+w/-2w LCA vector and a bottom-up sum."""
    vector = {v: 0.0 for v in tree.order}
    for u, v, data in graph.edges(data=True):
        if u == v:
            continue
        weight = data.get("weight", 1)
        vector[u] += weight
        vector[v] += weight
        vector[lca(tree, u, v)] -= 2 * weight
    cuts = {}
    for node in reversed(tree.order):
        if node != tree.root:
            vector[tree.parent[node]] += vector[node]
            cuts[tree.edge_of(node)] = vector[node]
    return cuts


def pair_cover_matrix(graph: nx.Graph, tree: RootedTree):
    """``Cov(e, f)`` for every pair by accumulating over path pairs."""
    edges = list(tree.edges())
    index = {edge: i for i, edge in enumerate(edges)}
    matrix = np.zeros((len(edges), len(edges)), dtype=float)
    for u, v, weight in _weighted_edges(graph):
        path = [index[e] for e in path_edges(tree, u, v)]
        if path:
            rows = np.array(path)
            matrix[np.ix_(rows, rows)] += weight
    return edges, matrix


def cut_matrix(graph: nx.Graph, tree: RootedTree):
    """``Cut(e_i, e_j) = Cov(e_i) + Cov(e_j) - 2 Cov(e_i, e_j)`` (Fact 5)."""
    edges, cov = pair_cover_matrix(graph, tree)
    diag = np.diag(cov).copy()
    cuts = diag[:, None] + diag[None, :] - 2 * cov
    np.fill_diagonal(cuts, diag)
    return edges, cuts


def two_respecting_oracle(graph: nx.Graph, tree: RootedTree) -> CutCandidate:
    """Minimum over all 1- and 2-respecting cuts (first minimum wins)."""
    edges, cuts = cut_matrix(graph, tree)
    i, j = divmod(int(np.argmin(cuts)), len(edges))
    chosen = (edges[i],) if i == j else (edges[i], edges[j])
    return CutCandidate(value=float(cuts[i, j]), edges=chosen)


def cut_partition(tree: RootedTree, edges: tuple) -> frozenset:
    """One side of a respecting cut, by subtree set algebra."""
    if len(edges) == 1:
        return frozenset(subtree_nodes(tree, tree.bottom(edges[0])))
    be, bf = (tree.bottom(edge) for edge in edges)
    if is_ancestor(tree, be, bf):
        return frozenset(subtree_nodes(tree, be)) - set(subtree_nodes(tree, bf))
    if is_ancestor(tree, bf, be):
        return frozenset(subtree_nodes(tree, bf)) - set(subtree_nodes(tree, be))
    below = set(subtree_nodes(tree, be)) | set(subtree_nodes(tree, bf))
    return frozenset(set(tree.order) - below)


def partition_cut_weight(graph: nx.Graph, side) -> tuple[float, list]:
    """Weight and crossing edges of a bipartition, edge by edge."""
    crossing = []
    total = 0.0
    for u, v, data in graph.edges(data=True):
        if (u in side) != (v in side):
            crossing.append(edge_key(u, v))
            total += data.get("weight", 1)
    return total, crossing


# ----------------------------------------------------------------------
# Exhaustive minimum cut
# ----------------------------------------------------------------------
def exhaustive_min_cut(graph: "nx.Graph | CSRGraph") -> tuple[float, frozenset]:
    """The exact min-cut value by enumerating all 2^(n-1) bipartitions.

    Returns the value and one minimizing side, in the graph's own node
    space (labels for networkx, indices for CSR).  Refuses graphs with
    more than :data:`EXHAUSTIVE_MAX_NODES` nodes.
    """
    csr = graph if isinstance(graph, CSRGraph) else CSRGraph.from_networkx(graph)
    n = csr.n
    if not 2 <= n <= EXHAUSTIVE_MAX_NODES:
        raise ValueError(
            f"exhaustive enumeration needs 2 <= n <= {EXHAUSTIVE_MAX_NODES}, "
            f"got {n}"
        )
    u, v, w = csr.edge_u, csr.edge_v, csr.edge_w
    best_value = float("inf")
    best_side: tuple = ()
    # Node n-1 stays on the complement, so each cut is seen exactly once.
    for size in range(1, n):
        for side in itertools.combinations(range(n - 1), size):
            members = np.zeros(n, dtype=bool)
            members[list(side)] = True
            value = float(w[members[u] != members[v]].sum())
            if value < best_value:
                best_value, best_side = value, side
    if graph is csr:
        return best_value, frozenset(best_side)
    labels = csr.node_labels()
    return best_value, frozenset(labels[i] for i in best_side)


# ----------------------------------------------------------------------
# Hop diameter
# ----------------------------------------------------------------------
def reference_diameter(graph: CSRGraph) -> int:
    """Exact hop diameter by one BFS from every node (requires
    connectivity)."""
    best = 0
    for source in range(graph.n):
        dist = graph.bfs_levels(source)
        if (dist < 0).any():
            raise GraphValidationError("diameter of a disconnected graph")
        best = max(best, int(dist.max()))
    return best
