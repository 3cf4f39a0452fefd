"""Row-by-row SpTRSV and IC(0): the golden models of the level-scheduled kernels.

:func:`repro.sparse.ops.level_sptrsv_lower` /
:func:`~repro.sparse.ops.level_sptrsv_upper` execute a triangular solve
one dependence level at a time, and
:func:`repro.sparse.ops.ic0_attempt` batches the IC(0) updates the same
way.  The row loops here are the straightforward formulations: the
level kernels must agree with them to rounding and report the same
errors and breakdowns (``tests/test_kernel_equivalence.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import NotTriangularError, SingularMatrixError
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import _check_trsv_args


def ic0_attempt_rowwise(lower: CSRMatrix,
                        diag_shift: float = 0.0) -> Optional[np.ndarray]:
    """One up-looking IC(0) attempt; returns factor data or None on breakdown.

    Operates in-place on a copy of the lower triangle's data array,
    using the standard row-by-row update:

        L[i,j] = (A[i,j] - sum_k L[i,k] L[j,k]) / L[j,j]   for j < i
        L[i,i] = sqrt(A[i,i] - sum_k L[i,k]^2)
    """
    n = lower.n_rows
    indptr, indices = lower.indptr, lower.indices
    data = lower.data.copy()
    # Apply the diagonal shift before factoring.
    if diag_shift != 0.0:
        for i in range(n):
            end = indptr[i + 1]
            if end > indptr[i] and indices[end - 1] == i:
                data[end - 1] *= 1.0 + diag_shift
    # Row-major position of each row's diagonal entry (last in row).
    for i in range(n):
        row_start, row_end = indptr[i], indptr[i + 1]
        if row_end == row_start or indices[row_end - 1] != i:
            return None  # structurally missing diagonal
        for pos in range(row_start, row_end - 1):
            j = indices[pos]
            # data[pos] currently holds A[i,j] minus prior updates.
            # Subtract sum_k<j L[i,k] * L[j,k] using merged row scan.
            acc = data[pos]
            pi, pj = row_start, indptr[j]
            j_end = indptr[j + 1] - 1  # exclude L[j,j]
            while pi < pos and pj < j_end:
                ci, cj = indices[pi], indices[pj]
                if ci == cj:
                    acc -= data[pi] * data[pj]
                    pi += 1
                    pj += 1
                elif ci < cj:
                    pi += 1
                else:
                    pj += 1
            pivot = data[indptr[j + 1] - 1]
            if pivot == 0.0:
                return None
            data[pos] = acc / pivot
        # Diagonal entry.
        diag_pos = row_end - 1
        acc = data[diag_pos]
        for pos in range(row_start, diag_pos):
            acc -= data[pos] * data[pos]
        if acc <= 0.0:
            return None
        data[diag_pos] = np.sqrt(acc)
    return data


def sptrsv_lower_rowwise(lower: CSRMatrix, b,
                         unit_diagonal: bool = False) -> np.ndarray:
    """Solve ``L x = b`` for lower-triangular ``L`` by forward substitution.

    Parameters
    ----------
    lower:
        Lower-triangular CSR matrix (columns sorted within rows).
    b:
        Right-hand-side vector.
    unit_diagonal:
        When ``True``, the diagonal is assumed to be all ones and any
        stored diagonal entries are ignored.
    """
    b = np.asarray(b, dtype=np.float64)
    n = lower.n_rows
    _check_trsv_args(lower, b)
    x = np.zeros(n, dtype=np.float64)
    indptr, indices, data = lower.indptr, lower.indices, lower.data
    for i in range(n):
        start, end = indptr[i], indptr[i + 1]
        cols = indices[start:end]
        vals = data[start:end]
        if len(cols) and cols[-1] > i:
            raise NotTriangularError(
                f"row {i} has entry in column {cols[-1]} above the diagonal"
            )
        if unit_diagonal:
            strictly = cols < i
            acc = float(np.dot(vals[strictly], x[cols[strictly]]))
            x[i] = b[i] - acc
        else:
            if len(cols) == 0 or cols[-1] != i:
                raise SingularMatrixError(f"missing diagonal entry in row {i}")
            acc = float(np.dot(vals[:-1], x[cols[:-1]]))
            pivot = vals[-1]
            if pivot == 0.0:
                raise SingularMatrixError(f"zero pivot in row {i}")
            x[i] = (b[i] - acc) / pivot
    return x


def sptrsv_upper_rowwise(upper: CSRMatrix, b,
                         unit_diagonal: bool = False) -> np.ndarray:
    """Solve ``U x = b`` for upper-triangular ``U`` by backward substitution."""
    b = np.asarray(b, dtype=np.float64)
    n = upper.n_rows
    _check_trsv_args(upper, b)
    x = np.zeros(n, dtype=np.float64)
    indptr, indices, data = upper.indptr, upper.indices, upper.data
    for i in range(n - 1, -1, -1):
        start, end = indptr[i], indptr[i + 1]
        cols = indices[start:end]
        vals = data[start:end]
        if len(cols) and cols[0] < i:
            raise NotTriangularError(
                f"row {i} has entry in column {cols[0]} below the diagonal"
            )
        if unit_diagonal:
            strictly = cols > i
            acc = float(np.dot(vals[strictly], x[cols[strictly]]))
            x[i] = b[i] - acc
        else:
            if len(cols) == 0 or cols[0] != i:
                raise SingularMatrixError(f"missing diagonal entry in row {i}")
            acc = float(np.dot(vals[1:], x[cols[1:]]))
            pivot = vals[0]
            if pivot == 0.0:
                raise SingularMatrixError(f"zero pivot in row {i}")
            x[i] = (b[i] - acc) / pivot
    return x
