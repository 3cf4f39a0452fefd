"""Tests for coloring, permutation, level scheduling, and parallelism."""

import numpy as np
import pytest

from repro.graph import (
    color_and_permute,
    color_counts,
    color_permutation,
    greedy_coloring,
    inverse_permutation,
    parallelism_report,
    permute_vector,
    spmv_parallelism,
    sptrsv_parallelism,
    symmetric_permute,
)
from repro.graph.coloring import validate_coloring
from repro.graph.levels import critical_path_ops
from repro.sparse import generators as gen
from repro.sparse.schedule import triangular_schedule


class TestColoring:
    @pytest.mark.parametrize(
        "strategy", ["largest_first", "natural", "smallest_last"]
    )
    def test_valid_coloring(self, grid_matrix, strategy):
        colors = greedy_coloring(grid_matrix, strategy=strategy)
        assert validate_coloring(grid_matrix, colors)

    def test_grid_is_two_colorable(self):
        """A bipartite grid graph needs exactly two colors (Fig. 6)."""
        matrix = gen.grid_laplacian_2d(6, 6)
        colors = greedy_coloring(matrix, strategy="largest_first")
        assert colors.max() + 1 == 2

    def test_tridiagonal_two_colors(self):
        matrix = gen.tridiagonal_spd(16)
        colors = greedy_coloring(matrix)
        assert colors.max() + 1 == 2
        assert validate_coloring(matrix, colors)

    def test_color_counts(self, grid_matrix):
        colors = greedy_coloring(grid_matrix)
        counts = color_counts(colors)
        assert counts.sum() == grid_matrix.n_rows

    def test_color_permutation_groups_colors(self, grid_matrix):
        colors = greedy_coloring(grid_matrix)
        perm = color_permutation(colors)
        reordered = colors[perm]
        assert np.all(np.diff(reordered) >= 0)  # colors non-decreasing

    def test_unknown_strategy(self, grid_matrix):
        with pytest.raises(ValueError):
            greedy_coloring(grid_matrix, strategy="rainbow")


class TestDsatur:
    def test_valid_coloring(self, grid_matrix):
        colors = greedy_coloring(grid_matrix, strategy="dsatur")
        assert validate_coloring(grid_matrix, colors)

    def test_grid_two_colors(self):
        matrix = gen.grid_laplacian_2d(6, 6)
        colors = greedy_coloring(matrix, strategy="dsatur")
        assert colors.max() + 1 == 2

    def test_no_more_colors_than_largest_first(self, mesh_matrix):
        dsatur = greedy_coloring(mesh_matrix, strategy="dsatur")
        largest = greedy_coloring(mesh_matrix, strategy="largest_first")
        assert dsatur.max() <= largest.max() + 1


class TestPermutation:
    def test_inverse(self, rng):
        perm = rng.permutation(20)
        inv = inverse_permutation(perm)
        assert np.array_equal(perm[inv], np.arange(20))
        assert np.array_equal(inv[perm], np.arange(20))

    def test_symmetric_permute_preserves_solution(self, small_spd, rng):
        """(PAP^T)(Px) = Pb must hold for any permutation."""
        x = rng.standard_normal(small_spd.n_rows)
        b = small_spd.spmv(x)
        perm = rng.permutation(small_spd.n_rows)
        permuted = symmetric_permute(small_spd, perm)
        assert np.allclose(
            permuted.spmv(permute_vector(x, perm)), permute_vector(b, perm)
        )

    def test_symmetric_permute_preserves_symmetry(self, small_spd, rng):
        from repro.sparse import is_symmetric

        perm = rng.permutation(small_spd.n_rows)
        assert is_symmetric(symmetric_permute(small_spd, perm))

    def test_identity_permutation(self, small_spd):
        perm = np.arange(small_spd.n_rows)
        assert symmetric_permute(small_spd, perm).allclose(small_spd)

    def test_color_and_permute_end_to_end(self, mesh_matrix, rng):
        x = rng.standard_normal(mesh_matrix.n_rows)
        b = mesh_matrix.spmv(x)
        permuted, permuted_b, perm = color_and_permute(mesh_matrix, b)
        assert np.allclose(
            permuted.spmv(permute_vector(x, perm)), permuted_b
        )


class TestLevels:
    def test_tridiagonal_is_sequential(self):
        """An unpermuted tridiagonal lower triangle has n levels (Fig. 6)."""
        matrix = gen.tridiagonal_spd(12)
        lower = matrix.lower_triangle()
        schedule = triangular_schedule(lower)
        assert schedule.n_levels == 12

    def test_diagonal_matrix_is_one_level(self):
        import numpy as np

        from repro.sparse import COOMatrix, coo_to_csr

        n = 8
        diag = coo_to_csr(
            COOMatrix(np.arange(n), np.arange(n), np.ones(n), (n, n))
        )
        assert triangular_schedule(diag).n_levels == 1

    def test_levels_respect_dependences(self, mesh_matrix):
        lower = mesh_matrix.lower_triangle()
        schedule = triangular_schedule(lower)
        for i in range(lower.n_rows):
            cols, _ = lower.row(i)
            for j in cols:
                if j < i:
                    assert schedule.levels[j] < schedule.levels[i]

    def test_coloring_reduces_levels(self):
        """Permutation by color must shrink the level count (Fig. 6/7)."""
        matrix = gen.tridiagonal_spd(64)
        before = triangular_schedule(matrix.lower_triangle()).n_levels
        permuted, _, _ = color_and_permute(matrix)
        after = triangular_schedule(permuted.lower_triangle()).n_levels
        assert after < before
        assert after <= 2  # two colors -> at most two levels

    def test_critical_path_weighted(self):
        matrix = gen.tridiagonal_spd(10)
        lower = matrix.lower_triangle()
        # Chain of 10 rows: row 0 costs 1 op, rows 1..9 cost 2 ops each.
        assert critical_path_ops(lower) == 1 + 9 * 2


class TestParallelism:
    def test_spmv_exceeds_sptrsv(self, mesh_matrix):
        """Table I: SpMV parallelism dwarfs SpTRSV's."""
        lower = mesh_matrix.lower_triangle()
        assert spmv_parallelism(mesh_matrix) > sptrsv_parallelism(lower)

    def test_permutation_improves_sptrsv(self):
        matrix = gen.grid_laplacian_2d(16, 16)
        report = parallelism_report("grid", matrix)
        assert report.sptrsv_permuted > report.sptrsv_original
        assert report.coloring_gain > 1.0

    def test_report_fields(self, grid_matrix):
        report = parallelism_report("g", grid_matrix)
        assert report.name == "g"
        assert report.spmv > 0
        assert report.sptrsv_original > 0

    def test_empty_matrix(self):
        from repro.sparse import CSRMatrix

        empty = CSRMatrix([0], [], [], (0, 0))
        assert spmv_parallelism(empty) == 0.0
        assert sptrsv_parallelism(empty) == 0.0
