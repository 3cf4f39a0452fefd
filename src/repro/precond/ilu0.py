"""Incomplete LU factorization with zero fill-in, ILU(0).

Used with BiCGStab for non-symmetric systems (paper Table II,
"Incomplete LU").  ``L`` is unit-lower-triangular and ``U`` upper
triangular, both restricted to A's sparsity pattern.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PreconditionerError
from repro.precond.base import Preconditioner
from repro.sparse.csr import CSRMatrix


def ilu0(matrix: CSRMatrix):
    """Compute ILU(0) factors ``(L, U)`` of a square matrix.

    Implements the classic IKJ-variant restricted to the original
    pattern.  ``L`` has an implicit unit diagonal (stored explicitly for
    kernel uniformity); ``U`` includes the diagonal.
    """
    if matrix.shape[0] != matrix.shape[1]:
        raise PreconditionerError("ILU(0) requires a square matrix")
    n = matrix.n_rows
    indptr, indices = matrix.indptr, matrix.indices
    data = matrix.data.copy()
    diag_pos = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        for pos in range(indptr[i], indptr[i + 1]):
            if indices[pos] == i:
                diag_pos[i] = pos
    if np.any(diag_pos < 0):
        raise PreconditionerError("ILU(0) requires a fully stored diagonal")

    # Column-position lookup per row, built on the fly.
    for i in range(n):
        row_start, row_end = indptr[i], indptr[i + 1]
        row_map = {int(indices[p]): p for p in range(row_start, row_end)}
        for pos in range(row_start, row_end):
            k = int(indices[pos])
            if k >= i:
                break
            pivot = data[diag_pos[k]]
            if pivot == 0.0:
                raise PreconditionerError(f"zero pivot at row {k} in ILU(0)")
            factor = data[pos] / pivot
            data[pos] = factor
            for kpos in range(diag_pos[k] + 1, indptr[k + 1]):
                col = int(indices[kpos])
                hit = row_map.get(col)
                if hit is not None:
                    data[hit] -= factor * data[kpos]

    # Split into L (unit diagonal) and U.
    lower_rows, lower_cols, lower_vals = [], [], []
    upper_rows, upper_cols, upper_vals = [], [], []
    for i in range(n):
        for pos in range(indptr[i], indptr[i + 1]):
            j = int(indices[pos])
            if j < i:
                lower_rows.append(i)
                lower_cols.append(j)
                lower_vals.append(data[pos])
            else:
                upper_rows.append(i)
                upper_cols.append(j)
                upper_vals.append(data[pos])
        lower_rows.append(i)
        lower_cols.append(i)
        lower_vals.append(1.0)

    from repro.sparse.coo import COOMatrix
    from repro.sparse.convert import coo_to_csr

    shape = matrix.shape
    lower = coo_to_csr(COOMatrix(lower_rows, lower_cols, lower_vals, shape))
    upper = coo_to_csr(COOMatrix(upper_rows, upper_cols, upper_vals, shape))
    return lower, upper


class IncompleteLU(Preconditioner):
    """ILU(0) preconditioner: ``z = U^{-1} L^{-1} r`` via two SpTRSVs.

    ``L`` has a unit diagonal, so its solve skips the diagonal multiply
    (and its FLOPs).
    """

    def __init__(self, matrix: CSRMatrix):
        self._lower, self._upper = ilu0(matrix)

    def apply(self, r: np.ndarray, counter) -> np.ndarray:
        y = counter.sptrsv_lower(self._lower, r, unit_diagonal=True)
        return counter.sptrsv_upper(self._upper, y)
