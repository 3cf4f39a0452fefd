"""Symmetric Gauss-Seidel preconditioner.

``M = (D + L) D^{-1} (D + U)`` where ``L``/``U`` are A's strict lower
and upper triangles.  The paper highlights it (Sec. II-C) because it
needs no factorization: it "simply takes A's lower triangle", so Azul
can rebuild it for free when A's values change between timesteps.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PreconditionerError
from repro.precond.base import Preconditioner
from repro.sparse.csr import CSRMatrix


class SymmetricGaussSeidel(Preconditioner):
    """SymGS preconditioner via forward + backward triangular sweeps.

    ``apply`` computes ``z = (D+U)^{-1} D (D+L)^{-1} r``: a forward
    SpTRSV, a diagonal scale, and a backward SpTRSV — the ALRESCHA
    paper's "SymGS is equivalent to two consecutive triangular solves"
    (Sec. III, footnote 2).
    """

    def __init__(self, matrix: CSRMatrix):
        diag = matrix.diagonal()
        if np.any(diag == 0.0):
            raise PreconditionerError("SymGS requires a full nonzero diagonal")
        self._diag = diag
        self._lower = matrix.lower_triangle(include_diagonal=True)
        self._upper = matrix.upper_triangle(include_diagonal=True)

    def apply(self, r: np.ndarray, counter) -> np.ndarray:
        y = counter.sptrsv_lower(self._lower, r)
        return counter.sptrsv_upper(self._upper, self._diag * y)
