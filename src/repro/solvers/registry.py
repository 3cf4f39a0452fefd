"""Solver/preconditioner registry (paper Table II).

Maps each (algorithm, preconditioner) pair to the sparse kernels it
needs, demonstrating that SpMV and SpTRSV cover the widely used
iterative solvers.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SolverSpec:
    """One row of Table II."""

    algorithm: str
    preconditioner: str
    kernels: tuple


_TABLE = [
    SolverSpec("Conjugate Gradients", "None", ("SpMV",)),
    SolverSpec("Conjugate Gradients", "Diagonal/Jacobi", ("SpMV",)),
    SolverSpec("Conjugate Gradients", "Sym. Gauss-Seidel", ("SpMV", "SpTRSV")),
    SolverSpec("Conjugate Gradients", "Incomplete Cholesky", ("SpMV", "SpTRSV")),
    SolverSpec("Power Iteration", "None", ("SpMV",)),
    SolverSpec("SSOR", "None", ("SpTRSV",)),
    SolverSpec("BiCGStab", "None", ("SpMV",)),
    SolverSpec("BiCGStab", "Gauss-Seidel", ("SpMV", "SpTRSV")),
    SolverSpec("BiCGStab", "Incomplete LU", ("SpMV", "SpTRSV")),
]


def solver_table() -> list:
    """All rows of the Table II analog."""
    return list(_TABLE)


def kernels_for(algorithm: str, preconditioner: str = "None") -> tuple:
    """Kernels required by a given solver/preconditioner combination."""
    for spec in _TABLE:
        if (
            spec.algorithm.lower() == algorithm.lower()
            and spec.preconditioner.lower() == preconditioner.lower()
        ):
            return spec.kernels
    raise KeyError(
        f"no Table II entry for {algorithm!r} with {preconditioner!r}"
    )
