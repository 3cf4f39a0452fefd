"""Symmetric successive over-relaxation (SSOR) preconditioner.

The omega-weighted generalization of symmetric Gauss-Seidel (Table II):

    M(w) = (D/w + L) * (w / (2 - w)) * D^{-1} * (D/w + U)

``omega = 1`` recovers SymGS up to the leading scalar.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PreconditionerError
from repro.precond.base import Preconditioner
from repro.sparse.coo import COOMatrix
from repro.sparse.convert import coo_to_csr, csr_to_coo
from repro.sparse.csr import CSRMatrix


def _replace_diagonal(triangle: CSRMatrix, new_diag: np.ndarray) -> CSRMatrix:
    """Return a copy of a triangular matrix with its diagonal replaced."""
    coo = csr_to_coo(triangle)
    data = coo.data.copy()
    on_diag = coo.rows == coo.cols
    data[on_diag] = new_diag[coo.rows[on_diag]]
    return coo_to_csr(COOMatrix(coo.rows, coo.cols, data, triangle.shape))


class SSORPreconditioner(Preconditioner):
    """SSOR(omega) preconditioner via two weighted triangular sweeps."""

    def __init__(self, matrix: CSRMatrix, omega: float = 1.0):
        if not 0.0 < omega < 2.0:
            raise PreconditionerError(
                f"SSOR requires omega in (0, 2); got {omega}"
            )
        diag = matrix.diagonal()
        if np.any(diag == 0.0):
            raise PreconditionerError("SSOR requires a full nonzero diagonal")
        self.omega = omega
        scaled_diag = diag / omega
        self._lower = _replace_diagonal(
            matrix.lower_triangle(include_diagonal=True), scaled_diag
        )
        self._upper = _replace_diagonal(
            matrix.upper_triangle(include_diagonal=True), scaled_diag
        )
        self._mid_scale = diag * ((2.0 - omega) / omega)

    def apply(self, r: np.ndarray, counter) -> np.ndarray:
        y = counter.sptrsv_lower(self._lower, r)
        return counter.sptrsv_upper(self._upper, self._mid_scale * y)
