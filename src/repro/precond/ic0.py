"""Incomplete Cholesky factorization with zero fill-in, IC(0).

The paper's PCG uses an incomplete-Cholesky preconditioner (Sec. VI):
``L L^T ~ A`` where ``L`` keeps exactly the sparsity pattern of A's
lower triangle.  Applying the preconditioner is two triangular solves
(``trisolve(L^T, trisolve(L, r))`` in Listing 1) — the very SpTRSVs Azul
accelerates.

IC(0) can break down (non-positive pivot) on matrices that are SPD but
not H-matrices; the standard remedy, used here, is to retry with an
increasing diagonal shift ``A + alpha * diag(A)``.

The numeric factorization (:func:`repro.sparse.ops.ic0_attempt`)
batches the updates by dependence level, sharing the cached
:class:`~repro.sparse.schedule.IC0Schedule` across shift retries.
"""

from __future__ import annotations

import numpy as np

import repro.obs as obs
from repro.errors import PreconditionerError
from repro.precond.base import Preconditioner
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import ic0_attempt


def ic0(matrix: CSRMatrix, max_shift_attempts: int = 8) -> CSRMatrix:
    """Compute the IC(0) factor ``L`` of an SPD matrix.

    Returns a lower-triangular CSR matrix with the pattern of
    ``tril(A)``.  On breakdown, retries with diagonal shifts
    ``alpha = 1e-3 * 2^k`` and raises :class:`PreconditionerError` after
    ``max_shift_attempts`` failures.
    """
    lower = matrix.lower_triangle()
    obs.counter("solve.kernel.ic0.calls")
    with obs.timer("solve.kernel.ic0", n=matrix.n_rows) as ph:
        data = ic0_attempt(lower, diag_shift=0.0)
        shift = 1e-3
        attempts = 0
        while data is None and attempts < max_shift_attempts:
            data = ic0_attempt(lower, diag_shift=shift)
            shift *= 2.0
            attempts += 1
        ph.set(shift_attempts=attempts)
    if data is None:
        raise PreconditionerError(
            f"IC(0) broke down even with diagonal shift {shift / 2:g}"
        )
    return CSRMatrix(
        lower.indptr.copy(), lower.indices.copy(), data, lower.shape
    )


class IncompleteCholesky(Preconditioner):
    """IC(0) preconditioner: ``z = (L L^T)^{-1} r`` via two SpTRSVs."""

    def __init__(self, matrix: CSRMatrix):
        self._lower = ic0(matrix)
        self._upper = self._lower.transpose()

    def apply(self, r: np.ndarray, counter) -> np.ndarray:
        y = counter.sptrsv_lower(self._lower, r)
        return counter.sptrsv_upper(self._upper, y)

    def lower_factor(self) -> CSRMatrix:
        """The IC(0) factor ``L``: what Azul maps and simulates."""
        return self._lower
