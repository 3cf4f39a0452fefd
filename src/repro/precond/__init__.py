"""Preconditioners for iterative solvers (paper Table II).

All preconditioners implement :class:`~repro.precond.base.Preconditioner`:
``apply(r, counter)`` returns ``z = M^{-1} r``, running any triangular
solves through the solver's :class:`~repro.solvers.kernels.KernelCounter`
so they are executed and counted as the SpTRSVs Azul accelerates.
``IncompleteCholesky.lower_factor()`` is the factor Azul maps and
simulates.
"""

from repro.precond.base import Preconditioner
from repro.precond.identity import IdentityPreconditioner
from repro.precond.jacobi import JacobiPreconditioner
from repro.precond.ic0 import IncompleteCholesky, ic0
from repro.precond.ilu0 import IncompleteLU, ilu0
from repro.precond.gauss_seidel import SymmetricGaussSeidel
from repro.precond.ssor import SSORPreconditioner

__all__ = [
    "Preconditioner",
    "IdentityPreconditioner",
    "JacobiPreconditioner",
    "IncompleteCholesky",
    "ic0",
    "IncompleteLU",
    "ilu0",
    "SymmetricGaussSeidel",
    "SSORPreconditioner",
]
