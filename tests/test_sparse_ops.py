"""Unit tests for the SpMV and SpTRSV kernels and FLOP accounting."""

import numpy as np
import pytest

from repro.errors import NotTriangularError, SingularMatrixError
from repro.sparse import (
    CSRMatrix,
    level_sptrsv_lower,
    level_sptrsv_upper,
    spmv,
    spmv_flops,
    sptrsv_flops,
)
from repro.sparse.ops import axpy_flops, dot_flops
from tests.conftest import random_csr


class TestSpMV:
    def test_identity(self):
        n = 5
        eye = CSRMatrix(np.arange(n + 1), np.arange(n), np.ones(n), (n, n))
        x = np.arange(n, dtype=float)
        assert np.allclose(spmv(eye, x), x)

    def test_matches_dense(self, rng):
        csr = random_csr(rng, 20, 20, 0.3)
        x = rng.standard_normal(20)
        assert np.allclose(spmv(csr, x), csr.to_dense() @ x)

    def test_flops(self, small_spd):
        assert spmv_flops(small_spd) == 2 * small_spd.nnz


class TestSpTRSVLower:
    def test_paper_example_figure4(self):
        """The 6x6 lower-triangular example of Fig. 4/5."""
        dense = np.array([
            [2.0, 0, 0, 0, 0, 0],
            [0, 3.0, 0, 0, 0, 0],
            [1.0, 0, 4.0, 0, 0, 0],
            [2.0, 0, 0, 5.0, 0, 0],
            [1.0, 0, 0, 1.0, 2.0, 0],
            [0, 1.0, 2.0, 0, 1.0, 3.0],
        ])
        from repro.sparse import COOMatrix, coo_to_csr

        lower = coo_to_csr(COOMatrix.from_dense(dense))
        x_true = np.array([1.0, -2.0, 0.5, 3.0, -1.0, 2.0])
        b = dense @ x_true
        assert np.allclose(level_sptrsv_lower(lower, b), x_true)

    def test_matches_numpy_solve(self, small_spd, rng):
        lower = small_spd.lower_triangle()
        b = rng.standard_normal(lower.n_rows)
        x = level_sptrsv_lower(lower, b)
        assert np.allclose(lower.to_dense() @ x, b)

    def test_unit_diagonal(self, rng):
        n = 10
        dense = np.tril(rng.standard_normal((n, n)), k=-1)
        from repro.sparse import COOMatrix, coo_to_csr

        lower = coo_to_csr(COOMatrix.from_dense(dense))
        b = rng.standard_normal(n)
        x = level_sptrsv_lower(lower, b, unit_diagonal=True)
        assert np.allclose((dense + np.eye(n)) @ x, b)

    def test_rejects_upper_entries(self, small_spd, rng):
        b = rng.standard_normal(small_spd.n_rows)
        with pytest.raises(NotTriangularError):
            level_sptrsv_lower(small_spd, b)  # full matrix, not triangular

    def test_rejects_missing_diagonal(self):
        from repro.sparse import COOMatrix, coo_to_csr

        # Row 1 has no diagonal entry.
        lower = coo_to_csr(COOMatrix([0, 1], [0, 0], [1.0, 1.0], (2, 2)))
        with pytest.raises(SingularMatrixError):
            level_sptrsv_lower(lower, np.ones(2))

    def test_rejects_zero_pivot(self):
        from repro.sparse import COOMatrix, coo_to_csr

        lower = coo_to_csr(
            COOMatrix([0, 1, 1], [0, 0, 1], [1.0, 1.0, 0.0], (2, 2))
        )
        with pytest.raises(SingularMatrixError):
            level_sptrsv_lower(lower, np.ones(2))


class TestSpTRSVUpper:
    def test_matches_numpy_solve(self, small_spd, rng):
        upper = small_spd.upper_triangle()
        b = rng.standard_normal(upper.n_rows)
        x = level_sptrsv_upper(upper, b)
        assert np.allclose(upper.to_dense() @ x, b)

    def test_transpose_consistency(self, small_spd, rng):
        """Solving L^T x = b must equal solving with the upper triangle."""
        lower = small_spd.lower_triangle()
        upper = lower.transpose()
        b = rng.standard_normal(lower.n_rows)
        x = level_sptrsv_upper(upper, b)
        assert np.allclose(np.triu(lower.to_dense().T) @ x, b)

    def test_rejects_lower_entries(self, small_spd, rng):
        b = rng.standard_normal(small_spd.n_rows)
        with pytest.raises(NotTriangularError):
            level_sptrsv_upper(small_spd, b)


class TestFlopAccounting:
    def test_sptrsv_flops(self, small_spd):
        lower = small_spd.lower_triangle()
        n = lower.n_rows
        expected = 2 * (lower.nnz - n) + n
        assert sptrsv_flops(lower) == expected

    def test_vector_op_flops(self):
        assert dot_flops(100) == 200
        assert axpy_flops(100) == 200
