"""Greedy graph coloring of sparse-matrix adjacency (Sec. II-A, Fig. 6).

Rows with the same color share no nonzero coupling, so after permuting
same-color rows to be adjacent, the lower triangle's dependence graph
has at most one level per color.  The paper colors matrices with
networkx's greedy coloring; this module implements the same strategies
directly on the CSR pattern, without networkx.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NotSymmetricError
from repro.sparse.csr import CSRMatrix


def greedy_coloring(matrix: CSRMatrix, strategy: str = "largest_first") -> np.ndarray:
    """Color the adjacency graph of a symmetric sparse matrix.

    Parameters
    ----------
    matrix:
        Square matrix whose off-diagonal pattern defines the graph.
        The pattern must be structurally symmetric (guaranteed for the
        SPD matrices iterative solvers consume).
    strategy:
        ``"largest_first"`` (default, the strategy of the networkx
        greedy coloring the paper uses), ``"natural"`` (index order),
        ``"smallest_last"``, or ``"dsatur"`` (saturation-degree
        ordering, typically fewest colors).

    Returns
    -------
    ndarray of int
        ``colors[i]`` is the color of row/vertex ``i``; colors are
        contiguous integers starting at 0.
    """
    if matrix.shape[0] != matrix.shape[1]:
        raise NotSymmetricError("coloring requires a square matrix")
    n = matrix.n_rows
    degrees = matrix.row_nnz() - 1  # exclude the diagonal
    if strategy == "dsatur":
        return _dsatur_coloring(matrix, degrees)
    if strategy == "largest_first":
        order = np.argsort(-degrees, kind="stable")
    elif strategy == "natural":
        order = np.arange(n)
    elif strategy == "smallest_last":
        order = _smallest_last_order(matrix, degrees)
    else:
        raise ValueError(f"unknown coloring strategy {strategy!r}")

    colors = np.full(n, -1, dtype=np.int64)
    for vertex in order:
        neighbor_cols, _ = matrix.row(int(vertex))
        used = {int(colors[c]) for c in neighbor_cols if colors[c] >= 0}
        color = 0
        while color in used:
            color += 1
        colors[vertex] = color
    return colors


def _dsatur_coloring(matrix: CSRMatrix, degrees: np.ndarray) -> np.ndarray:
    """DSATUR: color the vertex with the most distinctly-colored
    neighbors next (Brelaz).  Usually needs the fewest colors of the
    greedy family, at somewhat higher cost."""
    n = matrix.n_rows
    colors = np.full(n, -1, dtype=np.int64)
    neighbor_colors = [set() for _ in range(n)]
    for _ in range(n):
        # Pick the uncolored vertex with max saturation, ties by degree.
        best = -1
        best_key = (-1, -1)
        for v in range(n):
            if colors[v] >= 0:
                continue
            key = (len(neighbor_colors[v]), int(degrees[v]))
            if key > best_key:
                best_key = key
                best = v
        color = 0
        while color in neighbor_colors[best]:
            color += 1
        colors[best] = color
        cols, _ = matrix.row(best)
        for u in cols:
            u = int(u)
            if u != best:
                neighbor_colors[u].add(color)
    return colors


def _smallest_last_order(matrix: CSRMatrix, degrees: np.ndarray) -> np.ndarray:
    """Smallest-last vertex ordering (classic Matula-Beck heuristic)."""
    import heapq

    n = matrix.n_rows
    remaining_degree = degrees.astype(np.int64).copy()
    removed = np.zeros(n, dtype=bool)
    heap = [(int(remaining_degree[v]), v) for v in range(n)]
    heapq.heapify(heap)
    reverse_order = []
    while heap:
        degree, vertex = heapq.heappop(heap)
        if removed[vertex] or degree != remaining_degree[vertex]:
            continue
        removed[vertex] = True
        reverse_order.append(vertex)
        cols, _ = matrix.row(vertex)
        for c in cols:
            c = int(c)
            if not removed[c] and c != vertex:
                remaining_degree[c] -= 1
                heapq.heappush(heap, (int(remaining_degree[c]), c))
    return np.array(reverse_order[::-1], dtype=np.int64)


def color_counts(colors: np.ndarray) -> np.ndarray:
    """Number of vertices assigned each color."""
    return np.bincount(colors)


def color_permutation(colors: np.ndarray) -> np.ndarray:
    """Permutation placing same-color rows adjacently (Fig. 6, right).

    Returns ``perm`` such that new index ``k`` corresponds to old index
    ``perm[k]``; rows are grouped by ascending color, preserving the
    original order within a color (a stable sort, so the result is
    deterministic).
    """
    return np.argsort(colors, kind="stable")


def validate_coloring(matrix: CSRMatrix, colors: np.ndarray) -> bool:
    """Check that no two coupled rows share a color."""
    for i in range(matrix.n_rows):
        cols, _ = matrix.row(i)
        for c in cols:
            if c != i and colors[c] == colors[i]:
                return False
    return True
