"""Preconditioner interface.

A preconditioner approximates ``A^{-1}``: applying it to the residual
(``z = M^{-1} r``) reshapes the spectrum so the solver converges in fewer
iterations (Sec. II, "Numerical stability and preconditioning").
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class Preconditioner(ABC):
    """Base class for all preconditioners.

    Subclasses implement :meth:`apply`, the only way a solver applies a
    preconditioner.  Factor-based preconditioners (IC(0), ILU(0),
    SymGS, SSOR) run their two triangular solves through the solver's
    :class:`~repro.solvers.kernels.KernelCounter`, so the SpTRSVs Azul
    accelerates are executed and counted like any other kernel;
    diagonal scalings stay uncounted.
    """

    @abstractmethod
    def apply(self, r: np.ndarray, counter) -> np.ndarray:
        """Return ``z = M^{-1} r``.

        ``counter`` is the solver's
        :class:`~repro.solvers.kernels.KernelCounter`: every triangular
        solve goes through its ``sptrsv_lower`` / ``sptrsv_upper``.
        """
