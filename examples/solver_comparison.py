"""Solver zoo: every Table II algorithm on one problem.

Runs CG, PCG (Jacobi / SymGS / SSOR / IC(0)), BiCGStab (plain and
ILU(0)), restarted GMRES, and power iteration on the same SPD system,
reporting iteration counts and the kernel mix each one exercises —
demonstrating that the whole family reduces to SpMV + SpTRSV, the two
kernels Azul accelerates.

Run:  python examples/solver_comparison.py
"""

import numpy as np

from repro import (
    IncompleteCholesky,
    IncompleteLU,
    JacobiPreconditioner,
    SSORPreconditioner,
    SymmetricGaussSeidel,
    bicgstab,
    conjugate_gradient,
    gmres,
    pcg,
    power_iteration,
)
from repro.solvers import SolveOptions, chebyshev
from repro.graph import color_and_permute
from repro.sparse import generators


def main():
    matrix = generators.random_geometric_fem(
        150, avg_degree=7, dofs_per_node=2, seed=11
    )
    matrix, _, _ = color_and_permute(matrix)
    b, x_true = generators.make_rhs_with_solution(matrix, seed=12)
    print(f"system: n={matrix.n_rows}, nnz={matrix.nnz}\n")

    runs = [
        ("CG", lambda: conjugate_gradient(matrix, b)),
        ("PCG + Jacobi",
         lambda: pcg(matrix, b, JacobiPreconditioner(matrix))),
        ("PCG + SymGS",
         lambda: pcg(matrix, b, SymmetricGaussSeidel(matrix))),
        ("PCG + SSOR(1.2)",
         lambda: pcg(matrix, b, SSORPreconditioner(matrix, omega=1.2))),
        ("PCG + IC(0)",
         lambda: pcg(matrix, b, IncompleteCholesky(matrix))),
        ("Chebyshev",
         lambda: chebyshev(
             matrix, b,
             options=SolveOptions(tol=1e-10, max_iterations=20000),
         )),
        ("BiCGStab", lambda: bicgstab(matrix, b)),
        ("BiCGStab + ILU(0)",
         lambda: bicgstab(matrix, b, IncompleteLU(matrix))),
        ("GMRES(30)", lambda: gmres(matrix, b, restart=30)),
    ]
    header = (
        f"{'solver':18s} {'iters':>6s} {'error':>10s} "
        f"{'SpMV MFLOP':>11s} {'SpTRSV MFLOP':>13s}"
    )
    print(header)
    print("-" * len(header))
    for label, solve in runs:
        result = solve()
        error = np.linalg.norm(result.x - x_true)
        print(
            f"{label:18s} {result.iterations:6d} {error:10.2e} "
            f"{result.flops['spmv'] / 1e6:11.2f} "
            f"{result.flops['sptrsv'] / 1e6:13.2f}"
        )
        assert result.converged, f"{label} failed to converge"

    eigen = power_iteration(matrix, tol=1e-10)
    print(
        f"\npower iteration: dominant eigenvalue "
        f"{eigen.eigenvalue:.4f} in {eigen.iterations} iterations "
        "(SpMV-only, Table II)"
    )


if __name__ == "__main__":
    main()
