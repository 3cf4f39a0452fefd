"""BiCGStab solver for general (non-symmetric) systems (Table II)."""

from __future__ import annotations

import numpy as np

from repro.precond.base import Preconditioner
from repro.precond.identity import IdentityPreconditioner
from repro.solvers.base import SolveOptions, SolveResult
from repro.solvers.kernels import KernelCounter
from repro.solvers.tracking import ConvergenceHistory
from repro.sparse.csr import CSRMatrix


def bicgstab(matrix: CSRMatrix, b, preconditioner: Preconditioner = None,
             options: SolveOptions = None, x0=None) -> SolveResult:
    """Solve ``A x = b`` with the stabilized bi-conjugate gradient method.

    Uses right preconditioning, so the reported residual is the true
    residual of the original system.  Each iteration performs two SpMVs
    and two preconditioner applications — the same kernel mix Azul
    accelerates (Sec. II-B).
    """
    options = options or SolveOptions()
    preconditioner = preconditioner or IdentityPreconditioner()
    b = np.asarray(b, dtype=np.float64)
    counter = KernelCounter()
    history = ConvergenceHistory()

    n = matrix.n_rows
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    r = b - counter.spmv(matrix, x) if x0 is not None else b.copy()
    r_hat = r.copy()
    rho_old = alpha = omega = 1.0
    v = np.zeros(n)
    p = np.zeros(n)
    b_norm = float(np.linalg.norm(b))
    threshold = options.tol * (b_norm if b_norm > 0 else 1.0)

    residual_norm = counter.norm(r)
    if options.record_history:
        history.record(residual_norm)
    iterations = 0
    converged = residual_norm <= threshold

    while not converged and iterations < options.max_iterations:
        rho = counter.dot(r_hat, r)
        if rho == 0.0:
            break
        if iterations == 0:
            p = r.copy()
        else:
            beta = (rho / rho_old) * (alpha / omega)
            p = counter.scale_add(r, beta, p - omega * v)
        p_hat = preconditioner.apply(p, counter)
        v = counter.spmv(matrix, p_hat)
        denom = counter.dot(r_hat, v)
        if denom == 0.0:
            break
        alpha = rho / denom
        s = counter.axpy(-alpha, v, r)
        if float(np.linalg.norm(s)) <= threshold:
            x = counter.axpy(alpha, p_hat, x)
            residual_norm = float(np.linalg.norm(s))
            iterations += 1
            if options.record_history:
                history.record(residual_norm)
            converged = True
            break
        s_hat = preconditioner.apply(s, counter)
        t = counter.spmv(matrix, s_hat)
        tt = counter.dot(t, t)
        if tt == 0.0:
            break
        omega = counter.dot(t, s) / tt
        x = counter.axpy(alpha, p_hat, x)
        x = counter.axpy(omega, s_hat, x)
        r = counter.axpy(-omega, t, s)
        rho_old = rho
        iterations += 1
        residual_norm = counter.norm(r)
        if options.record_history:
            history.record(residual_norm)
        converged = residual_norm <= threshold
        if omega == 0.0:
            break

    return SolveResult(
        x=x,
        converged=converged,
        iterations=iterations,
        residual_norm=residual_norm,
        history=history,
        flops=counter.snapshot(),
    )
