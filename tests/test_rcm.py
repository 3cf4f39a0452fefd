"""Tests for reverse Cuthill-McKee ordering."""

import numpy as np
import pytest

from repro.graph import rcm_ordering, symmetric_permute
from repro.sparse import generators as gen
from repro.sparse.properties import bandwidth


class TestRCM:
    def test_is_a_permutation(self, mesh_matrix):
        perm = rcm_ordering(mesh_matrix)
        assert np.array_equal(np.sort(perm), np.arange(mesh_matrix.n_rows))

    def test_reduces_bandwidth_on_shuffled_grid(self, rng):
        """RCM's raison d'etre: recover a narrow band from a scramble."""
        matrix = gen.grid_laplacian_2d(10, 10)
        shuffle = rng.permutation(matrix.n_rows)
        scrambled = symmetric_permute(matrix, shuffle)
        ordered = symmetric_permute(scrambled, rcm_ordering(scrambled))
        assert bandwidth(ordered) < bandwidth(scrambled)

    def test_handles_disconnected_components(self):
        from repro.sparse import COOMatrix, coo_to_csr

        # Two disjoint 3-cycles plus diagonals.
        rows = [0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5]
        cols = [1, 2, 0, 4, 5, 3, 0, 1, 2, 3, 4, 5]
        vals = [1.0] * 6 + [3.0] * 6
        coo = COOMatrix(rows + cols[:6], cols + rows[:6],
                        vals + vals[:6], (6, 6))
        matrix = coo_to_csr(coo.sum_duplicates())
        perm = rcm_ordering(matrix)
        assert np.array_equal(np.sort(perm), np.arange(6))

    def test_deterministic(self, mesh_matrix):
        assert np.array_equal(
            rcm_ordering(mesh_matrix), rcm_ordering(mesh_matrix)
        )

    def test_ordering_study_shape(self):
        """Coloring wins parallelism; RCM wins bandwidth (ord_study)."""
        from repro.experiments import run_experiment

        result = run_experiment("ord_study", matrices=["consph", "thermal2"])
        for row in result.rows:
            assert row["par_colored"] >= row["par_rcm"]
