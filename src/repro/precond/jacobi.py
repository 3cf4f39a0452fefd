"""Diagonal (Jacobi) preconditioner."""

from __future__ import annotations

import numpy as np

from repro.errors import PreconditionerError
from repro.precond.base import Preconditioner
from repro.sparse.csr import CSRMatrix


class JacobiPreconditioner(Preconditioner):
    """``z = D^{-1} r`` with ``D = diag(A)`` (Table II "Diagonal/Jacobi").

    The cheapest useful preconditioner: a single element-wise multiply,
    no SpTRSV needed.
    """

    def __init__(self, matrix: CSRMatrix):
        diag = matrix.diagonal()
        if np.any(diag == 0.0):
            raise PreconditionerError(
                "Jacobi preconditioner requires a full nonzero diagonal"
            )
        # Store reciprocals: the paper stores 1/d to keep divisions off
        # the critical path (Sec. VI-A).
        self._inv_diag = 1.0 / diag

    def apply(self, r: np.ndarray, counter) -> np.ndarray:
        return self._inv_diag * np.asarray(r, dtype=np.float64)
