"""Tests for the iterative solvers."""

import numpy as np
import pytest

from repro.errors import ConvergenceError, ReproError
from repro.precond import (
    IncompleteCholesky,
    IncompleteLU,
    JacobiPreconditioner,
    Preconditioner,
    SSORPreconditioner,
    SymmetricGaussSeidel,
)
from repro.solvers import (
    SolveOptions,
    bicgstab,
    chebyshev,
    conjugate_gradient,
    gershgorin_bounds,
    gmres,
    kernels_for,
    pcg,
    power_iteration,
    solver_table,
)
from repro.sparse import generators as gen


@pytest.fixture
def system(small_spd):
    b, x_true = gen.make_rhs_with_solution(small_spd, seed=11)
    return small_spd, b, x_true


class TestPCG:
    def test_solves_system(self, system):
        matrix, b, x_true = system
        result = pcg(matrix, b, IncompleteCholesky(matrix))
        assert result.converged
        assert np.allclose(result.x, x_true, atol=1e-6)

    def test_residual_criterion(self, system):
        matrix, b, _ = system
        options = SolveOptions(tol=1e-8)
        result = pcg(matrix, b, options=options)
        assert result.residual_norm <= 1e-8 * np.linalg.norm(b)

    def test_preconditioner_reduces_iterations(self):
        matrix = gen.grid_laplacian_2d(16, 16, shift=0.01)
        b = gen.make_rhs(matrix, seed=5)
        plain = pcg(matrix, b)
        preconditioned = pcg(matrix, b, IncompleteCholesky(matrix))
        assert preconditioned.converged
        assert preconditioned.iterations < plain.iterations

    def test_jacobi_preconditioner(self, system):
        matrix, b, x_true = system
        result = pcg(matrix, b, JacobiPreconditioner(matrix))
        assert result.converged
        assert np.allclose(result.x, x_true, atol=1e-6)

    def test_symgs_preconditioner(self, system):
        matrix, b, x_true = system
        result = pcg(matrix, b, SymmetricGaussSeidel(matrix))
        assert result.converged
        assert np.allclose(result.x, x_true, atol=1e-6)

    def test_flop_accounting(self, system):
        matrix, b, _ = system
        result = pcg(matrix, b, IncompleteCholesky(matrix))
        # One SpMV per iteration: 2*nnz FLOPs each.
        assert result.flops["spmv"] >= result.iterations * 2 * matrix.nnz
        assert result.flops["sptrsv"] > 0  # from the IC(0) solves
        assert result.flops["vector"] > 0
        assert result.total_flops == sum(result.flops.values())

    def test_history_recorded(self, system):
        matrix, b, _ = system
        result = pcg(matrix, b)
        assert len(result.history) == result.iterations + 1
        assert result.history.residuals[-1] <= result.history.residuals[0]

    def test_history_disabled(self, system):
        matrix, b, _ = system
        result = pcg(matrix, b, options=SolveOptions(record_history=False))
        assert len(result.history) == 0

    def test_initial_guess(self, system):
        matrix, b, x_true = system
        result = pcg(matrix, b, x0=x_true)
        assert result.converged
        assert result.iterations == 0

    def test_iteration_budget(self, system):
        matrix, b, _ = system
        result = pcg(matrix, b, options=SolveOptions(max_iterations=2))
        assert not result.converged
        assert result.iterations == 2

    def test_raise_on_divergence(self, system):
        matrix, b, _ = system
        with pytest.raises(ConvergenceError) as excinfo:
            pcg(
                matrix, b,
                options=SolveOptions(max_iterations=1),
                raise_on_divergence=True,
            )
        assert excinfo.value.result.iterations == 1

    def test_zero_rhs(self, small_spd):
        result = pcg(small_spd, np.zeros(small_spd.n_rows))
        assert result.converged
        assert result.iterations == 0
        assert np.allclose(result.x, 0.0)

    def test_works_after_coloring_permutation(self):
        """The paper permutes all inputs; PCG must still converge."""
        from repro.graph import color_and_permute, inverse_permutation

        matrix = gen.random_geometric_fem(40, avg_degree=6, seed=2)
        b, x_true = gen.make_rhs_with_solution(matrix, seed=3)
        permuted, permuted_b, perm = color_and_permute(matrix, b)
        result = pcg(permuted, permuted_b, IncompleteCholesky(permuted))
        assert result.converged
        # Undo the permutation and compare against the original solution.
        x_recovered = result.x[inverse_permutation(perm)]
        assert np.allclose(x_recovered, x_true, atol=1e-6)


class TestCG:
    def test_matches_pcg_identity(self, system):
        matrix, b, _ = system
        assert np.allclose(
            conjugate_gradient(matrix, b).x, pcg(matrix, b).x
        )


class TestBiCGStab:
    def test_solves_spd_system(self, system):
        matrix, b, x_true = system
        result = bicgstab(matrix, b)
        assert result.converged
        assert np.allclose(result.x, x_true, atol=1e-5)

    def test_solves_nonsymmetric_system(self, rng):
        """BiCGStab's reason to exist: non-symmetric systems."""
        from repro.sparse import COOMatrix, coo_to_csr

        n = 30
        dense = np.eye(n) * 4.0 + np.triu(rng.standard_normal((n, n)), 1) * 0.3
        dense += np.tril(rng.standard_normal((n, n)), -1) * 0.1
        matrix = coo_to_csr(COOMatrix.from_dense(dense))
        x_true = rng.standard_normal(n)
        result = bicgstab(matrix, matrix.spmv(x_true))
        assert result.converged
        assert np.allclose(result.x, x_true, atol=1e-5)

    def test_with_ilu_preconditioner(self, system):
        matrix, b, x_true = system
        result = bicgstab(matrix, b, IncompleteLU(matrix))
        assert result.converged
        assert np.allclose(result.x, x_true, atol=1e-5)
        assert result.flops["sptrsv"] > 0


class TestGMRES:
    def test_solves_spd_system(self, system):
        matrix, b, x_true = system
        result = gmres(matrix, b)
        assert result.converged
        assert np.allclose(result.x, x_true, atol=1e-5)

    def test_restart_still_converges(self, system):
        matrix, b, x_true = system
        result = gmres(matrix, b, restart=5)
        assert result.converged
        assert np.allclose(result.x, x_true, atol=1e-5)

    def test_with_preconditioner(self, system):
        matrix, b, x_true = system
        plain = gmres(matrix, b, restart=10)
        preconditioned = gmres(
            matrix, b, IncompleteCholesky(matrix), restart=10
        )
        assert preconditioned.converged
        assert preconditioned.iterations <= plain.iterations
        assert np.allclose(preconditioned.x, x_true, atol=1e-5)


class _DenseOperator(Preconditioner):
    """``z = M^{-1} r`` for an explicit dense ``M``: a formula, solved."""

    def __init__(self, operator):
        self._operator = operator

    def apply(self, r, counter):
        return np.linalg.solve(self._operator, r)


def _symgs_operator(dense):
    """``(D + L) D^{-1} (D + U)``."""
    diag = np.diag(np.diag(dense))
    return np.tril(dense) @ np.linalg.inv(diag) @ np.triu(dense)


def _ssor_operator(dense, omega):
    """``(D/w + L) (w / (2 - w)) D^{-1} (D/w + U)``."""
    diag = np.diag(np.diag(dense))
    return (
        (diag / omega + np.tril(dense, k=-1))
        @ (omega / (2.0 - omega) * np.linalg.inv(diag))
        @ (diag / omega + np.triu(dense, k=1))
    )


class TestSplittingPreconditioners:
    """SymGS and SSOR apply the operator their classes define, under
    every solver: the middle diagonal scale is part of the operator."""

    @pytest.mark.parametrize("solver", [pcg, bicgstab, gmres],
                             ids=["pcg", "bicgstab", "gmres"])
    @pytest.mark.parametrize("name", ["symgs", "ssor"])
    def test_iterations_match_the_dense_operator(self, solver, name):
        matrix = gen.grid_laplacian_2d(10, 10)
        b = gen.make_rhs(matrix, seed=3)
        dense = matrix.to_dense()
        if name == "symgs":
            precond = SymmetricGaussSeidel(matrix)
            operator = _symgs_operator(dense)
        else:
            precond = SSORPreconditioner(matrix, omega=1.2)
            operator = _ssor_operator(dense, 1.2)
        applied = solver(matrix, b, precond)
        reference = solver(matrix, b, _DenseOperator(operator))
        assert applied.converged and reference.converged
        assert applied.iterations == reference.iterations
        assert applied.flops["sptrsv"] > 0


class TestPowerIteration:
    def test_finds_dominant_eigenvalue(self, small_spd):
        result = power_iteration(small_spd, tol=1e-12)
        assert result.converged
        expected = np.linalg.eigvalsh(small_spd.to_dense()).max()
        assert np.isclose(result.eigenvalue, expected, rtol=1e-6)

    def test_eigenvector_residual(self, small_spd):
        result = power_iteration(small_spd, tol=1e-12)
        residual = (
            small_spd.spmv(result.eigenvector)
            - result.eigenvalue * result.eigenvector
        )
        assert np.linalg.norm(residual) < 1e-4


class TestGershgorinBounds:
    def test_bounds_bracket_spectrum(self, small_spd):
        lmin, lmax = gershgorin_bounds(small_spd)
        eigvals = np.linalg.eigvalsh(small_spd.to_dense())
        assert lmin <= eigvals.min() + 1e-12
        assert lmax >= eigvals.max() - 1e-12
        assert lmin > 0  # diagonally dominant generator


class TestChebyshev:
    def test_solves_system(self, small_spd):
        b, x_true = gen.make_rhs_with_solution(small_spd, seed=51)
        result = chebyshev(
            small_spd, b, options=SolveOptions(tol=1e-9, max_iterations=3000)
        )
        assert result.converged
        assert np.allclose(result.x, x_true, atol=1e-5)

    def test_no_dot_products_in_loop(self, small_spd):
        """Chebyshev's selling point: one SpMV, no reductions beyond the
        convergence check."""
        b = gen.make_rhs(small_spd, seed=52)
        result = chebyshev(small_spd, b)
        # Vector FLOPs are only norms (1/iter) + AXPYs (3/iter):
        # far fewer reductions than CG's 3 dots + norm per iteration.
        assert result.flops["spmv"] > 0
        assert result.flops["sptrsv"] == 0

    def test_tighter_bounds_converge_faster(self, small_spd):
        b = gen.make_rhs(small_spd, seed=53)
        eigvals = np.linalg.eigvalsh(small_spd.to_dense())
        exact = (float(eigvals.min()), float(eigvals.max()))
        loose = chebyshev(small_spd, b)
        tight = chebyshev(small_spd, b, bounds=exact)
        assert tight.converged
        assert tight.iterations <= loose.iterations

    def test_rejects_bad_bounds(self, small_spd):
        b = gen.make_rhs(small_spd, seed=54)
        with pytest.raises(ReproError):
            chebyshev(small_spd, b, bounds=(-1.0, 2.0))
        with pytest.raises(ReproError):
            chebyshev(small_spd, b, bounds=(3.0, 2.0))

    def test_initial_guess(self, small_spd):
        b, x_true = gen.make_rhs_with_solution(small_spd, seed=55)
        result = chebyshev(small_spd, b, x0=x_true)
        assert result.converged
        assert result.iterations == 0


class TestRegistry:
    def test_table_has_nine_rows(self):
        assert len(solver_table()) == 9

    def test_cg_ic_uses_both_kernels(self):
        kernels = kernels_for("Conjugate Gradients", "Incomplete Cholesky")
        assert kernels == ("SpMV", "SpTRSV")

    def test_power_iteration_spmv_only(self):
        assert kernels_for("Power Iteration") == ("SpMV",)

    def test_unknown_combination(self):
        with pytest.raises(KeyError):
            kernels_for("Conjugate Gradients", "Multigrid")

    def test_every_row_covered_by_kernels(self):
        """Table II's point: SpMV+SpTRSV cover every solver listed."""
        for spec in solver_table():
            assert set(spec.kernels) <= {"SpMV", "SpTRSV"}
