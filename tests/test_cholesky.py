"""Tests for symbolic Cholesky / fill-in analysis."""

import numpy as np
import pytest

from repro.sparse import COOMatrix, coo_to_csr
from repro.sparse import generators as gen
from repro.sparse.cholesky import (
    cholesky_flops,
    direct_vs_iterative_flops,
    elimination_tree,
    symbolic_cholesky,
)


def _dense_factor_pattern(matrix):
    """Reference: nonzero pattern of the dense Cholesky factor."""
    factor = np.linalg.cholesky(matrix.to_dense())
    return np.abs(factor) > 1e-12


class TestEliminationTree:
    def test_tridiagonal_is_a_chain(self):
        matrix = gen.tridiagonal_spd(8)
        parent = elimination_tree(matrix)
        assert list(parent) == [1, 2, 3, 4, 5, 6, 7, -1]

    def test_diagonal_matrix_is_a_forest_of_roots(self):
        n = 5
        eye = coo_to_csr(
            COOMatrix(np.arange(n), np.arange(n), np.ones(n), (n, n))
        )
        assert np.all(elimination_tree(eye) == -1)

    def test_parents_are_later_rows(self, small_spd):
        parent = elimination_tree(small_spd)
        for i, p in enumerate(parent):
            assert p == -1 or p > i


class TestSymbolicCholesky:
    def test_tridiagonal_has_no_fill(self):
        matrix = gen.tridiagonal_spd(12)
        factor = symbolic_cholesky(matrix)
        assert factor.nnz == matrix.lower_triangle().nnz
        assert factor.fill_ratio(matrix) == 1.0

    def test_arrow_matrix_fills_completely(self):
        """An arrow pointing the wrong way: dense first row/column makes
        L completely dense — the classic fill-in example."""
        n = 10
        rows = [0] * n + list(range(n))
        cols = list(range(n)) + list(range(n))
        vals = [1.0] * n + [float(n + 1)] * n
        coo = COOMatrix(
            rows + cols, cols + rows, vals + vals, (n, n)
        ).sum_duplicates()
        matrix = coo_to_csr(coo)
        factor = symbolic_cholesky(matrix)
        assert factor.nnz == n * (n + 1) // 2  # fully dense lower triangle

    def test_pattern_covers_dense_factor(self, small_spd):
        """Symbolic structure must be a superset of the numeric factor's
        nonzeros (equality up to numeric cancellation)."""
        factor = symbolic_cholesky(small_spd)
        dense_pattern = _dense_factor_pattern(small_spd)
        assert factor.nnz >= dense_pattern.sum()
        # Per-row counts dominate the numeric factor's rows.
        numeric_rows = dense_pattern.sum(axis=1)
        assert np.all(factor.row_counts >= numeric_rows)

    def test_fill_exceeds_ic0(self, mesh_matrix):
        """The Sec. II claim: the true factor is denser than tril(A)
        (which is IC(0)'s pattern)."""
        factor = symbolic_cholesky(mesh_matrix)
        assert factor.fill_ratio(mesh_matrix) > 1.0


class TestFlopComparison:
    def test_flops_positive_and_superlinear(self):
        small = gen.grid_laplacian_2d(8, 8)
        large = gen.grid_laplacian_2d(16, 16)
        small_flops = cholesky_flops(small)
        large_flops = cholesky_flops(large)
        assert small_flops > 0
        # 4x the unknowns -> much more than 4x the factorization work.
        assert large_flops > 4 * small_flops

    def test_direct_vs_iterative_dict(self, small_spd):
        from repro.precond import ic0

        lower = ic0(small_spd)
        comparison = direct_vs_iterative_flops(small_spd, lower, 50)
        assert comparison["pcg_total"] == 50 * comparison["pcg_per_iteration"]
        assert comparison["direct_factorization"] > 0


class TestExperiment:
    def test_tab_fill_runs(self):
        from repro.experiments import run_experiment

        result = run_experiment("tab_fill", matrices=["tmt_sym", "offshore"])
        for row in result.rows:
            assert row["fill_ratio"] >= 1.0
            assert row["nnz_chol"] >= row["nnz_trilA"]
