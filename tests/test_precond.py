"""Tests for the preconditioner family.

A solver applies a preconditioner only through ``apply(r, counter)``:
every triangular solve runs through the solver's ``KernelCounter``.
"""

import numpy as np
import pytest

from repro.errors import PreconditionerError
from repro.precond import (
    IdentityPreconditioner,
    IncompleteCholesky,
    IncompleteLU,
    JacobiPreconditioner,
    SSORPreconditioner,
    SymmetricGaussSeidel,
    ic0,
    ilu0,
)
from repro.solvers import KernelCounter
from repro.sparse import generators as gen
from repro.sparse import is_lower_triangular, is_upper_triangular


class TestIdentity:
    def test_is_noop(self, rng):
        r = rng.standard_normal(10)
        z = IdentityPreconditioner().apply(r, KernelCounter())
        assert np.array_equal(z, r)
        assert z is not r  # must not alias the input

    def test_no_factors(self, rng):
        """The identity has no triangular factor: it solves nothing."""
        counter = KernelCounter()
        IdentityPreconditioner().apply(rng.standard_normal(10), counter)
        assert counter.calls["sptrsv"] == 0
        assert counter.flops["sptrsv"] == 0


class TestJacobi:
    def test_apply(self, small_spd, rng):
        r = rng.standard_normal(small_spd.n_rows)
        z = JacobiPreconditioner(small_spd).apply(r, KernelCounter())
        assert np.allclose(z, r / small_spd.diagonal())

    def test_rejects_zero_diagonal(self):
        from repro.sparse import COOMatrix, coo_to_csr

        matrix = coo_to_csr(COOMatrix([0, 1], [1, 0], [1.0, 1.0], (2, 2)))
        with pytest.raises(PreconditionerError):
            JacobiPreconditioner(matrix)


class TestIC0:
    def test_exact_on_tridiagonal(self):
        """IC(0) of a tridiagonal SPD matrix is the exact Cholesky factor
        (no fill-in exists to discard)."""
        matrix = gen.tridiagonal_spd(15)
        lower = ic0(matrix)
        exact = np.linalg.cholesky(matrix.to_dense())
        assert np.allclose(lower.to_dense(), exact, atol=1e-12)

    def test_pattern_matches_lower_triangle(self, mesh_matrix):
        lower = ic0(mesh_matrix)
        reference = mesh_matrix.lower_triangle()
        assert np.array_equal(lower.indptr, reference.indptr)
        assert np.array_equal(lower.indices, reference.indices)

    def test_factor_is_lower_triangular(self, small_spd):
        assert is_lower_triangular(ic0(small_spd))

    def test_llt_approximates_a(self, small_spd):
        """On the kept pattern, L L^T must reproduce A closely."""
        lower = ic0(small_spd)
        product = lower.to_dense() @ lower.to_dense().T
        dense = small_spd.to_dense()
        mask = dense != 0
        assert np.allclose(product[mask], dense[mask], rtol=1e-6, atol=1e-8)

    def test_apply_reduces_error(self, small_spd, rng):
        """M^{-1} A should be much better conditioned than A."""
        precond = IncompleteCholesky(small_spd)
        dense = small_spd.to_dense()
        m_inv_a = np.array(
            [precond.apply(dense[:, j], KernelCounter())
             for j in range(dense.shape[0])]
        ).T
        cond_before = np.linalg.cond(dense)
        cond_after = np.linalg.cond(m_inv_a)
        assert cond_after < cond_before * 1.01

    def test_factors_exposed(self, small_spd):
        precond = IncompleteCholesky(small_spd)
        assert is_lower_triangular(precond.lower_factor())
        np.testing.assert_array_equal(
            precond.lower_factor().data, ic0(small_spd).data
        )


class TestILU0:
    def test_exact_on_tridiagonal(self):
        matrix = gen.tridiagonal_spd(12)
        lower, upper = ilu0(matrix)
        product = lower.to_dense() @ upper.to_dense()
        assert np.allclose(product, matrix.to_dense(), atol=1e-10)

    def test_unit_lower_diagonal(self, small_spd):
        lower, upper = ilu0(small_spd)
        assert np.allclose(lower.diagonal(), 1.0)
        assert is_lower_triangular(lower)
        assert is_upper_triangular(upper)

    def test_apply_consistency(self, small_spd, rng):
        precond = IncompleteLU(small_spd)
        r = rng.standard_normal(small_spd.n_rows)
        z = precond.apply(r, KernelCounter())
        lower, upper = ilu0(small_spd)
        assert np.allclose(lower.to_dense() @ (upper.to_dense() @ z), r)


class TestSymGSAndSSOR:
    def test_symgs_apply_matches_formula(self, small_spd, rng):
        precond = SymmetricGaussSeidel(small_spd)
        r = rng.standard_normal(small_spd.n_rows)
        z = precond.apply(r, KernelCounter())
        dense = small_spd.to_dense()
        diag = np.diag(np.diag(dense))
        lower = np.tril(dense)
        upper = np.triu(dense)
        m = lower @ np.linalg.inv(diag) @ upper
        assert np.allclose(m @ z, r)

    def test_ssor_omega_one_matches_symgs(self, small_spd, rng):
        r = rng.standard_normal(small_spd.n_rows)
        symgs = SymmetricGaussSeidel(small_spd).apply(r, KernelCounter())
        ssor = SSORPreconditioner(small_spd, omega=1.0).apply(
            r, KernelCounter()
        )
        assert np.allclose(symgs, ssor)

    def test_ssor_rejects_bad_omega(self, small_spd):
        with pytest.raises(PreconditionerError):
            SSORPreconditioner(small_spd, omega=2.5)
        with pytest.raises(PreconditionerError):
            SSORPreconditioner(small_spd, omega=0.0)

    def test_ssor_apply_matches_formula(self, small_spd, rng):
        omega = 1.4
        precond = SSORPreconditioner(small_spd, omega=omega)
        r = rng.standard_normal(small_spd.n_rows)
        z = precond.apply(r, KernelCounter())
        dense = small_spd.to_dense()
        diag = np.diag(np.diag(dense))
        strict_lower = np.tril(dense, k=-1)
        strict_upper = np.triu(dense, k=1)
        m = (
            (diag / omega + strict_lower)
            @ np.linalg.inv(diag * ((2 - omega) / omega))
            @ (diag / omega + strict_upper)
        )
        assert np.allclose(m @ z, r)


class TestApplyThroughCounter:
    @pytest.mark.parametrize("make, sptrsv_calls", [
        (lambda m: IncompleteCholesky(m), 2),
        (lambda m: IncompleteLU(m), 2),
        (lambda m: SymmetricGaussSeidel(m), 2),
        (lambda m: SSORPreconditioner(m, omega=1.2), 2),
        (lambda m: IdentityPreconditioner(), 0),
        (lambda m: JacobiPreconditioner(m), 0),
    ], ids=["ic0", "ilu0", "symgs", "ssor", "identity", "jacobi"])
    def test_apply_records_its_sptrsvs(self, small_spd, rng, make,
                                       sptrsv_calls):
        """Each triangular solve is one counted SpTRSV call; diagonal
        scalings are not counted."""
        counter = KernelCounter()
        make(small_spd).apply(rng.standard_normal(small_spd.n_rows),
                              counter)
        assert counter.calls == {
            "spmv": 0, "sptrsv": sptrsv_calls, "vector": 0,
        }
        assert (counter.flops["sptrsv"] > 0) == (sptrsv_calls > 0)
