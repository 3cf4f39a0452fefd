"""Identity (no-op) preconditioner: plain CG/BiCGStab."""

from __future__ import annotations

import numpy as np

from repro.precond.base import Preconditioner


class IdentityPreconditioner(Preconditioner):
    """``z = r``; turns PCG into unpreconditioned CG (Table II row 1)."""

    def apply(self, r: np.ndarray, counter) -> np.ndarray:
        return np.array(r, dtype=np.float64, copy=True)
