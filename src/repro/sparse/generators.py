"""Synthetic SPD matrix generators.

The paper evaluates on SuiteSparse SPD matrices (Table IV).  Without
access to those files, each generator here produces a matrix class whose
*performance-relevant* characteristics match a family of paper matrices:
nonzeros per row, spatial correlation of the sparsity pattern, and
available SpTRSV parallelism (work / critical path).  All generators
return diagonally dominant symmetric matrices, which are SPD by the
Gershgorin circle theorem, so PCG with an IC(0) preconditioner converges
on every suite member.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.convert import coo_to_csr
from repro.sparse.csr import CSRMatrix


def _symmetrize_and_dominate(rows, cols, vals, n, shift=1.0) -> CSRMatrix:
    """Build an SPD CSR matrix from off-diagonal COO triplets.

    The pattern is symmetrized (A + A^T pattern with averaged values) and
    the diagonal is set to ``shift + sum(|off-diagonal row entries|)`` so
    the result is strictly diagonally dominant, hence SPD.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    off = rows != cols
    rows, cols, vals = rows[off], cols[off], vals[off]
    all_rows = np.concatenate([rows, cols])
    all_cols = np.concatenate([cols, rows])
    all_vals = np.concatenate([vals, vals]) * 0.5
    coo = COOMatrix(all_rows, all_cols, all_vals, (n, n)).sum_duplicates()
    row_abs = np.zeros(n)
    np.add.at(row_abs, coo.rows, np.abs(coo.data))
    diag_rows = np.arange(n)
    full = COOMatrix(
        np.concatenate([coo.rows, diag_rows]),
        np.concatenate([coo.cols, diag_rows]),
        np.concatenate([coo.data, row_abs + shift]),
        (n, n),
    )
    return coo_to_csr(full)


def tridiagonal_spd(n: int) -> CSRMatrix:
    """A tridiagonal SPD matrix (the fully-sequential SpTRSV case, Fig. 6)."""
    idx = np.arange(n - 1)
    return _symmetrize_and_dominate(idx, idx + 1, -np.ones(n - 1), n)


def grid_laplacian_2d(nx: int, ny: int, shift: float = 0.05) -> CSRMatrix:
    """5-point Laplacian on an ``nx x ny`` grid.

    Analog of the paper's grid-like matrices (thermal2, ecology2,
    tmt_sym): ~5 nonzeros/row, strong spatial correlation, high SpTRSV
    parallelism after coloring.
    """
    n = nx * ny
    ids = np.arange(n).reshape(nx, ny)
    right = (ids[:, :-1].ravel(), ids[:, 1:].ravel())
    down = (ids[:-1, :].ravel(), ids[1:, :].ravel())
    rows = np.concatenate([right[0], down[0]])
    cols = np.concatenate([right[1], down[1]])
    vals = -np.ones(len(rows))
    return _symmetrize_and_dominate(rows, cols, vals, n, shift=shift)


def grid_laplacian_3d(nx: int, ny: int, nz: int, shift: float = 0.05) -> CSRMatrix:
    """7-point Laplacian on an ``nx x ny x nz`` grid (apache2 analog)."""
    n = nx * ny * nz
    ids = np.arange(n).reshape(nx, ny, nz)
    pairs = [
        (ids[:, :, :-1].ravel(), ids[:, :, 1:].ravel()),
        (ids[:, :-1, :].ravel(), ids[:, 1:, :].ravel()),
        (ids[:-1, :, :].ravel(), ids[1:, :, :].ravel()),
    ]
    rows = np.concatenate([p[0] for p in pairs])
    cols = np.concatenate([p[1] for p in pairs])
    vals = -np.ones(len(rows))
    return _symmetrize_and_dominate(rows, cols, vals, n, shift=shift)


def banded_spd(n: int, half_bandwidth: int, density: float = 0.5,
               seed: int = 0) -> CSRMatrix:
    """Random banded SPD matrix.

    Dense rows with a wide band mimic structural-analysis matrices with
    low SpTRSV parallelism (thread, crankseg_1): long dependence chains
    down the band resist coloring.
    """
    rng = np.random.default_rng(seed)
    rows_list = []
    cols_list = []
    for offset in range(1, half_bandwidth + 1):
        count = n - offset
        keep = rng.random(count) < density
        idx = np.arange(count)[keep]
        rows_list.append(idx + offset)
        cols_list.append(idx)
    rows = np.concatenate(rows_list)
    cols = np.concatenate(cols_list)
    vals = -rng.random(len(rows))
    return _symmetrize_and_dominate(rows, cols, vals, n)


#: Most pairwise distances :func:`_nearest_neighbors` holds at once.
_NEIGHBOR_BLOCK = 1 << 18


def _nearest_neighbors(points: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` points nearest to each point, nearest first.

    Exact blocked brute force over all pairs, for ``1 <= k <= n``.
    Squared distances are summed one coordinate at a time into a zeroed
    block, ``((0 + dx^2) + dy^2) + dz^2``, which is the order of
    ``scipy.spatial.cKDTree``'s Euclidean metric, so the distances are
    bit-equal to its own and the neighbor order matches it wherever no
    two distances tie.  Ties are ordered by lower index.  Returns an
    ``(n, k)`` integer array; a point's own index comes first unless
    another point coincides with it at a lower index.
    """
    n, dim = points.shape
    neighbors = np.empty((n, k), dtype=np.intp)
    rows = max(1, _NEIGHBOR_BLOCK // n)
    for start in range(0, n, rows):
        block = np.zeros((min(rows, n - start), n))
        for axis in range(dim):
            diff = points[start:start + rows, axis, None] - points[:, axis]
            diff *= diff
            block += diff
        nearest = np.argpartition(block, k - 1, axis=1)[:, :k]
        dist = np.take_along_axis(block, nearest, axis=1)
        order = np.lexsort((nearest, dist), axis=1)
        nearest = np.take_along_axis(nearest, order, axis=1)
        # argpartition picks arbitrarily among distances tied with the
        # k-th; redo any row that left such a tie out, by lower index.
        kth = dist.max(axis=1, keepdims=True)
        for row in np.flatnonzero((block <= kth).sum(axis=1) > k):
            nearest[row] = np.argsort(block[row], kind="stable")[:k]
        neighbors[start:start + len(block)] = nearest
    return neighbors


def random_geometric_fem(n_points: int, avg_degree: int = 8, dim: int = 3,
                         dofs_per_node: int = 1, seed: int = 0) -> CSRMatrix:
    """Unstructured-mesh stiffness-matrix analog.

    Random points in the unit cube are connected to their nearest
    neighbors (a proxy for FEM mesh adjacency); each mesh node carries
    ``dofs_per_node`` degrees of freedom coupled densely within an edge,
    mimicking the dense node blocks of matrices like shipsec1, consph
    and bmwcra_1.  With one point or ``avg_degree=0`` there are no
    edges and the result is diagonal.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    if avg_degree < 0:
        raise ValueError(f"avg_degree must be non-negative, got {avg_degree}")
    rng = np.random.default_rng(seed)
    points = rng.random((n_points, dim))
    k = min(avg_degree + 1, n_points)
    neighbors = _nearest_neighbors(points, k)
    src = np.repeat(np.arange(n_points), k - 1)
    dst = neighbors[:, 1:].ravel()
    d = dofs_per_node
    n = n_points * d
    if d == 1:
        rows, cols = src, dst
    else:
        # Expand each mesh edge into a dense d x d block of couplings.
        di, dj = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
        di, dj = di.ravel(), dj.ravel()
        rows = (src[:, None] * d + di[None, :]).ravel()
        cols = (dst[:, None] * d + dj[None, :]).ravel()
    vals = -rng.random(len(rows))
    return _symmetrize_and_dominate(rows, cols, vals, n)


def block_dense_spd(n_blocks: int, block_size: int, coupling_per_block: int = 4,
                    seed: int = 0) -> CSRMatrix:
    """Dense diagonal blocks with sparse inter-block coupling.

    Mimics matrices with very dense rows and low parallelism (nd12k,
    pdb1HYS): within a block every row depends on every earlier row, so
    the SpTRSV critical path is long even after coloring.
    """
    rng = np.random.default_rng(seed)
    n = n_blocks * block_size
    rows_list = []
    cols_list = []
    for b in range(n_blocks):
        base = b * block_size
        local_i, local_j = np.tril_indices(block_size, k=-1)
        rows_list.append(base + local_i)
        cols_list.append(base + local_j)
        if b > 0:
            src = base + rng.integers(0, block_size, coupling_per_block)
            prev = rng.integers(0, base, coupling_per_block)
            rows_list.append(src)
            cols_list.append(prev)
    rows = np.concatenate(rows_list)
    cols = np.concatenate(cols_list)
    vals = -rng.random(len(rows))
    return _symmetrize_and_dominate(rows, cols, vals, n)


def random_spd(n: int, nnz_per_row: int = 5, seed: int = 0) -> CSRMatrix:
    """Random sparse SPD matrix with no spatial correlation.

    Analog of circuit matrices (G3_circuit): few nonzeros per row at
    effectively random coordinates, which defeats position-based
    mappings (Sec. VI-C).
    """
    rng = np.random.default_rng(seed)
    n_edges = max(1, (n * max(nnz_per_row - 1, 1)) // 2)
    rows = rng.integers(0, n, n_edges)
    cols = rng.integers(0, n, n_edges)
    vals = -rng.random(n_edges)
    return _symmetrize_and_dominate(rows, cols, vals, n)


def make_rhs(matrix: CSRMatrix, seed: int = 0) -> np.ndarray:
    """Right-hand side ``b = A @ x_true`` for a random smooth ``x_true``.

    Building ``b`` from a known solution keeps solver tests exact: the
    converged answer can be compared against ``x_true`` directly.
    """
    rng = np.random.default_rng(seed)
    x_true = rng.standard_normal(matrix.n_cols)
    return matrix.spmv(x_true)


def make_rhs_with_solution(matrix: CSRMatrix, seed: int = 0):
    """Like :func:`make_rhs` but also returns the generating solution."""
    rng = np.random.default_rng(seed)
    x_true = rng.standard_normal(matrix.n_cols)
    return matrix.spmv(x_true), x_true
