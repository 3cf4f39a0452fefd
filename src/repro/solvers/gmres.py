"""Restarted GMRES solver (Sec. II-B: "other iterative solvers like
GMRES ... have the same kernels and challenges")."""

from __future__ import annotations

import numpy as np

from repro.precond.base import Preconditioner
from repro.precond.identity import IdentityPreconditioner
from repro.solvers.base import SolveOptions, SolveResult
from repro.solvers.kernels import KernelCounter
from repro.solvers.tracking import ConvergenceHistory
from repro.sparse.csr import CSRMatrix


def gmres(matrix: CSRMatrix, b, preconditioner: Preconditioner = None,
          options: SolveOptions = None, restart: int = 30,
          x0=None) -> SolveResult:
    """Solve ``A x = b`` with right-preconditioned restarted GMRES(m).

    Arnoldi with modified Gram-Schmidt and Givens-rotation least squares.
    ``iterations`` counts inner (Arnoldi) steps, each of which performs
    one SpMV — directly comparable to PCG iterations in kernel mix.
    """
    options = options or SolveOptions()
    preconditioner = preconditioner or IdentityPreconditioner()
    b = np.asarray(b, dtype=np.float64)
    counter = KernelCounter()
    history = ConvergenceHistory()

    n = matrix.n_rows
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    b_norm = float(np.linalg.norm(b))
    threshold = options.tol * (b_norm if b_norm > 0 else 1.0)

    total_inner = 0
    residual_norm = float(np.linalg.norm(b - matrix.spmv(x)))
    if options.record_history:
        history.record(residual_norm)
    converged = residual_norm <= threshold

    while not converged and total_inner < options.max_iterations:
        r = b - counter.spmv(matrix, x)
        beta = float(np.linalg.norm(r))
        if beta == 0.0:
            converged = True
            break
        m = min(restart, options.max_iterations - total_inner)
        basis = np.zeros((m + 1, n))
        basis[0] = r / beta
        hessenberg = np.zeros((m + 1, m))
        cos = np.zeros(m)
        sin = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        k_used = 0

        for k in range(m):
            w = counter.spmv(matrix, preconditioner.apply(basis[k], counter))
            for i in range(k + 1):
                hessenberg[i, k] = counter.dot(w, basis[i])
                w = counter.axpy(-hessenberg[i, k], basis[i], w)
            hessenberg[k + 1, k] = float(np.linalg.norm(w))
            if hessenberg[k + 1, k] != 0.0:
                basis[k + 1] = w / hessenberg[k + 1, k]
            # Apply accumulated Givens rotations to the new column.
            for i in range(k):
                temp = cos[i] * hessenberg[i, k] + sin[i] * hessenberg[i + 1, k]
                hessenberg[i + 1, k] = (
                    -sin[i] * hessenberg[i, k] + cos[i] * hessenberg[i + 1, k]
                )
                hessenberg[i, k] = temp
            denom = np.hypot(hessenberg[k, k], hessenberg[k + 1, k])
            if denom == 0.0:
                k_used = k + 1
                break
            cos[k] = hessenberg[k, k] / denom
            sin[k] = hessenberg[k + 1, k] / denom
            hessenberg[k, k] = denom
            hessenberg[k + 1, k] = 0.0
            g[k + 1] = -sin[k] * g[k]
            g[k] = cos[k] * g[k]
            k_used = k + 1
            total_inner += 1
            residual_norm = abs(g[k + 1])
            if options.record_history:
                history.record(residual_norm)
            if residual_norm <= threshold or total_inner >= options.max_iterations:
                break

        # Solve the small triangular system and update x.
        if k_used > 0:
            y = np.linalg.solve(
                hessenberg[:k_used, :k_used], g[:k_used]
            )
            update = basis[:k_used].T @ y
            x = x + preconditioner.apply(update, counter)
        residual_norm = float(np.linalg.norm(b - matrix.spmv(x)))
        converged = residual_norm <= threshold

    return SolveResult(
        x=x,
        converged=converged,
        iterations=total_inner,
        residual_norm=residual_norm,
        history=history,
        flops=counter.snapshot(),
    )
