"""Row-by-row IC(0): the golden model of the level-scheduled factorization.

:func:`repro.sparse.ops.ic0_attempt` batches the same updates by
dependence level; it must agree to rounding and report the same
breakdowns (``tests/test_kernel_equivalence.py``).  The per-row
triangular solves need no oracle here: :func:`repro.sparse.ops.sptrsv_lower`
and :func:`~repro.sparse.ops.sptrsv_upper` are the row loops
themselves.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sparse.csr import CSRMatrix


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
