"""Preconditioned conjugate gradients (paper Listing 1).

The structure follows the paper's pseudocode exactly: one SpMV with A
and one preconditioner application (two SpTRSVs for IC(0)) per
iteration, plus a handful of vector operations.
"""

from __future__ import annotations

import numpy as np

import repro.obs as obs
from repro.errors import ConvergenceError
from repro.precond.base import Preconditioner
from repro.precond.identity import IdentityPreconditioner
from repro.solvers.base import SolveOptions, SolveResult
from repro.solvers.kernels import KernelCounter
from repro.solvers.tracking import ConvergenceHistory
from repro.sparse.csr import CSRMatrix


def pcg(matrix: CSRMatrix, b, preconditioner: Preconditioner = None,
        options: SolveOptions = None, x0=None,
        raise_on_divergence: bool = False) -> SolveResult:
    """Solve ``A x = b`` with preconditioned conjugate gradients.

    Parameters
    ----------
    matrix:
        SPD system matrix ``A``.
    b:
        Right-hand-side vector.
    preconditioner:
        Any :class:`~repro.precond.base.Preconditioner`; defaults to the
        identity (plain CG).
    options:
        Tolerance and iteration budget.
    x0:
        Initial guess (default: zero vector, as in Listing 1).
    raise_on_divergence:
        When true, an unconverged solve raises
        :class:`~repro.errors.ConvergenceError` instead of returning an
        unconverged result.
    """
    with obs.timer("pipeline.solve", solver="pcg", n=matrix.n_rows) as ph:
        result = _pcg(matrix, b, preconditioner, options, x0)
        ph.set(iterations=result.iterations, converged=result.converged)
    obs.counter("solve.pcg.calls")
    obs.counter("solve.pcg.iterations", result.iterations)
    if raise_on_divergence and not result.converged:
        raise ConvergenceError(
            f"PCG did not converge in "
            f"{(options or SolveOptions()).max_iterations} iterations "
            f"(residual {result.residual_norm:g})",
            result=result,
        )
    return result


def _pcg(matrix: CSRMatrix, b, preconditioner: Preconditioner = None,
         options: SolveOptions = None, x0=None) -> SolveResult:
    """The Listing 1 loop (see :func:`pcg` for the public contract)."""
    options = options or SolveOptions()
    preconditioner = preconditioner or IdentityPreconditioner()
    b = np.asarray(b, dtype=np.float64)
    counter = KernelCounter()
    history = ConvergenceHistory()

    n = matrix.n_rows
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    if x0 is None:
        r = b.copy()
    else:
        r = b - counter.spmv(matrix, x)
    b_norm = float(np.linalg.norm(b))
    threshold = options.tol * (b_norm if b_norm > 0 else 1.0)

    z = preconditioner.apply(r, counter)
    p = z.copy()
    rz_old = counter.dot(r, z)
    residual_norm = counter.norm(r)
    if options.record_history:
        history.record(residual_norm)

    iterations = 0
    converged = residual_norm <= threshold
    while not converged and iterations < options.max_iterations:
        ap = counter.spmv(matrix, p)
        p_ap = counter.dot(p, ap)
        if p_ap == 0.0:
            break
        alpha = rz_old / p_ap
        x = counter.axpy(alpha, p, x)
        r = counter.axpy(-alpha, ap, r)
        z = preconditioner.apply(r, counter)
        rz_new = counter.dot(r, z)
        beta = rz_new / rz_old if rz_old != 0.0 else 0.0
        p = counter.scale_add(z, beta, p)
        rz_old = rz_new
        iterations += 1
        residual_norm = counter.norm(r)
        if options.record_history:
            history.record(residual_norm)
        converged = residual_norm <= threshold

    return SolveResult(
        x=x,
        converged=converged,
        iterations=iterations,
        residual_norm=residual_norm,
        history=history,
        flops=counter.snapshot(),
    )
