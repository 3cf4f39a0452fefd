"""Tests for the synthetic generators, suite, properties, and MM I/O."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.sparse import (
    bandwidth,
    has_full_diagonal,
    is_lower_triangular,
    is_symmetric,
    is_upper_triangular,
    matrix_footprint_bytes,
    nnz_per_row_stats,
    read_matrix_market,
    vector_footprint_bytes,
    write_matrix_market,
)
from repro.sparse import generators as gen
from repro.sparse.properties import pcg_working_set_bytes
from repro.sparse.suite import (
    REPRESENTATIVE,
    azul_suite,
    get_suite_matrix,
    representative_suite,
    suite_inventory,
    suite_names,
)
from tests.oracles.neighbors import kdtree_neighbors


def _assert_spd(matrix):
    """SPD check: symmetric and positive eigenvalues (dense, small only)."""
    dense = matrix.to_dense()
    assert np.allclose(dense, dense.T)
    eigvals = np.linalg.eigvalsh(dense)
    assert eigvals.min() > 0


class TestGenerators:
    def test_tridiagonal_spd(self):
        matrix = gen.tridiagonal_spd(20)
        _assert_spd(matrix)
        assert bandwidth(matrix) == 1

    def test_grid_2d_structure(self):
        matrix = gen.grid_laplacian_2d(5, 4)
        assert matrix.shape == (20, 20)
        _assert_spd(matrix)
        stats = nnz_per_row_stats(matrix)
        assert stats.max == 5  # interior: 4 neighbors + diagonal

    def test_grid_3d_structure(self):
        matrix = gen.grid_laplacian_3d(3, 3, 3)
        assert matrix.shape == (27, 27)
        _assert_spd(matrix)
        assert nnz_per_row_stats(matrix).max == 7

    def test_banded(self):
        matrix = gen.banded_spd(40, 5, density=0.8, seed=1)
        _assert_spd(matrix)
        assert bandwidth(matrix) <= 5

    def test_fem_mesh(self):
        matrix = gen.random_geometric_fem(20, avg_degree=4, dofs_per_node=2)
        assert matrix.shape == (40, 40)
        _assert_spd(matrix)

    def test_fem_dofs_increase_density(self):
        one = gen.random_geometric_fem(25, avg_degree=4, dofs_per_node=1)
        three = gen.random_geometric_fem(25, avg_degree=4, dofs_per_node=3)
        assert (
            nnz_per_row_stats(three).mean > 2 * nnz_per_row_stats(one).mean
        )

    def test_block_dense(self):
        matrix = gen.block_dense_spd(4, 8, coupling_per_block=2, seed=5)
        assert matrix.shape == (32, 32)
        _assert_spd(matrix)
        assert nnz_per_row_stats(matrix).mean > 6  # dense blocks dominate

    def test_random_spd(self):
        matrix = gen.random_spd(50, nnz_per_row=5, seed=2)
        _assert_spd(matrix)

    def test_determinism(self):
        a = gen.random_spd(30, seed=9)
        b = gen.random_spd(30, seed=9)
        assert a.allclose(b)

    def test_rhs_from_known_solution(self, small_spd):
        b, x_true = gen.make_rhs_with_solution(small_spd, seed=3)
        assert np.allclose(small_spd.spmv(x_true), b)


class TestFemDegenerateInputs:
    """Meshes without edges are diagonal; impossible sizes are refused."""

    def test_single_point_is_diagonal(self):
        matrix = gen.random_geometric_fem(1)
        assert matrix.to_dense().tolist() == [[1.0]]

    @pytest.mark.parametrize("dofs", [1, 3])
    def test_zero_degree_is_diagonal(self, dofs):
        matrix = gen.random_geometric_fem(5, avg_degree=0, dofs_per_node=dofs)
        assert np.array_equal(matrix.to_dense(), np.eye(5 * dofs))

    @pytest.mark.parametrize("kwargs, name", [
        ({"n_points": 0}, "n_points"),
        ({"n_points": 5, "avg_degree": -1}, "avg_degree"),
    ])
    def test_rejects_impossible_sizes(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            gen.random_geometric_fem(**kwargs)


def _lattice(side, dim):
    axes = np.meshgrid(*[np.arange(side)] * dim, indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1).astype(float)


@st.composite
def point_sets(draw):
    """Seeded uniform points, so no two distances tie (see the oracle)."""
    n = draw(st.integers(1, 300))
    dim = draw(st.integers(1, 3))
    k = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random((n, dim)), k


class TestNearestNeighbors:
    """The mesh generator's brute-force k-nearest-neighbour search
    against the cKDTree query it replaced."""

    @pytest.mark.parametrize("entry, scale", [
        pytest.param(entry, scale, id=f"{entry.name}-x{scale}")
        for entry in azul_suite("all") if entry.category == "mesh"
        for scale in ((1, 2) if entry.section == "small" else (1,))
    ])
    def test_suite_meshes_match_kdtree_build(self, entry, scale,
                                             monkeypatch):
        built = entry.build(scale)
        monkeypatch.setattr(gen, "_nearest_neighbors", kdtree_neighbors)
        reference = entry.build(scale)
        for field in ("indptr", "indices", "data"):
            ours, theirs = getattr(built, field), getattr(reference, field)
            assert ours.dtype == theirs.dtype
            assert ours.tobytes() == theirs.tobytes()

    @seed(1717)
    @settings(max_examples=200, deadline=1000)
    @given(point_sets())
    def test_generated_points_match_kdtree(self, case):
        points, k = case
        assert np.array_equal(gen._nearest_neighbors(points, k),
                              kdtree_neighbors(points, k))

    def test_distances_sum_in_kdtree_order(self):
        # (a, b, c) and (c, b, a) are equally far from the origin in
        # exact arithmetic, so rounding alone ranks them: only cKDTree's
        # summation order gives its neighbour order.
        checked = 0
        for a, b, c in np.random.default_rng(7).random((100, 3)):
            if (a * a + b * b) + c * c == (c * c + b * b) + a * a:
                continue
            points = np.array([[0.0, 0.0, 0.0], [a, b, c], [c, b, a]])
            assert np.array_equal(gen._nearest_neighbors(points, 3),
                                  kdtree_neighbors(points, 3))
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("side, dim", [(7, 1), (3, 2), (3, 3)])
    def test_ties_order_by_lower_index(self, side, dim):
        points = _lattice(side, dim)
        squared = ((points[:, None, :] - points[None, :, :]) ** 2).sum(-1)
        ranked = np.argsort(squared, axis=1, kind="stable")
        for k in range(1, len(points) + 1):
            assert np.array_equal(gen._nearest_neighbors(points, k),
                                  ranked[:, :k])

    def test_tie_rule_by_hand(self):
        # The centre of a 3x3 lattice has four neighbours at distance 1:
        # k=4 keeps the three of lowest index.  A coinciding point of
        # lower index comes before the point itself.
        assert gen._nearest_neighbors(_lattice(3, 2), 4)[4].tolist() == [
            4, 1, 3, 5]
        assert gen._nearest_neighbors(np.zeros((2, 1)), 2).tolist() == [
            [0, 1], [0, 1]]

    @pytest.mark.parametrize("block", [1, 7])
    def test_block_size_does_not_change_result(self, block, monkeypatch):
        cases = [(np.random.default_rng(n).random((n, 3)), k)
                 for n, k in ((2, 2), (3, 2), (50, 9))]
        cases.append((_lattice(3, 2), 4))
        expected = [gen._nearest_neighbors(points, k) for points, k in cases]
        monkeypatch.setattr(gen, "_NEIGHBOR_BLOCK", block)
        for (points, k), want in zip(cases, expected):
            assert np.array_equal(gen._nearest_neighbors(points, k), want)


class TestProperties:
    def test_symmetry_detection(self, small_spd, rng):
        assert is_symmetric(small_spd)
        from tests.conftest import random_csr

        assert not is_symmetric(random_csr(rng, 10, 10, 0.3))

    def test_triangularity(self, small_spd):
        lower = small_spd.lower_triangle()
        assert is_lower_triangular(lower)
        assert not is_upper_triangular(lower)
        assert is_upper_triangular(lower.transpose())

    def test_full_diagonal(self, small_spd):
        assert has_full_diagonal(small_spd)

    def test_footprints(self, small_spd):
        assert matrix_footprint_bytes(small_spd) == 12 * small_spd.nnz
        assert vector_footprint_bytes(100) == 800
        lower = small_spd.lower_triangle()
        working = pcg_working_set_bytes(small_spd, lower)
        assert working > matrix_footprint_bytes(small_spd)


class TestMatrixMarketIO:
    def test_roundtrip_general(self, small_spd, tmp_path):
        path = tmp_path / "m.mtx"
        write_matrix_market(path, small_spd)
        again = read_matrix_market(path)
        assert again.allclose(small_spd)

    def test_roundtrip_symmetric(self, small_spd, tmp_path):
        path = tmp_path / "m.mtx"
        write_matrix_market(path, small_spd, symmetric=True)
        again = read_matrix_market(path)
        assert again.allclose(small_spd)

    def test_symmetric_file_is_smaller(self, small_spd, tmp_path):
        full = tmp_path / "full.mtx"
        sym = tmp_path / "sym.mtx"
        write_matrix_market(full, small_spd)
        write_matrix_market(sym, small_spd, symmetric=True)
        assert sym.stat().st_size < full.stat().st_size

    def test_rejects_garbage(self, tmp_path):
        from repro.errors import MatrixFormatError

        path = tmp_path / "bad.mtx"
        path.write_text("not a matrix\n1 2 3\n")
        with pytest.raises(MatrixFormatError):
            read_matrix_market(path)


class TestSuite:
    def test_small_suite_has_twenty_entries(self):
        assert len(azul_suite("small")) == 20

    def test_representative_subset(self):
        names = [m.name for m in representative_suite()]
        assert names == list(REPRESENTATIVE)
        assert set(names) <= set(suite_names("small"))

    def test_all_small_matrices_build_spd(self):
        # Structural sanity on every suite member (cheap checks only).
        for entry in azul_suite("small"):
            matrix, b = get_suite_matrix(entry.name)
            assert matrix.shape[0] == matrix.shape[1]
            assert is_symmetric(matrix)
            assert has_full_diagonal(matrix)
            assert len(b) == matrix.n_rows

    def test_inventory_columns(self):
        inventory = suite_inventory("small")
        assert len(inventory) == 20
        for row in inventory:
            assert row["nnz"] > 0
            assert row["a_bytes"] == 12 * row["nnz"]

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get_suite_matrix("no_such_matrix")

    def test_rhs_is_the_same_in_every_process(self):
        # String hashes are salted per process (PYTHONHASHSEED); the
        # right-hand side's seed must not depend on them.
        script = ("import sys; from repro.sparse.suite import "
                  "get_suite_matrix; sys.stdout.buffer.write("
                  "get_suite_matrix('tmt_sym')[1].tobytes())")
        src = Path(__file__).resolve().parents[1] / "src"
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                check=True, env=dict(os.environ, PYTHONPATH=str(src),
                                     PYTHONHASHSEED=hash_seed),
            ).stdout
            for hash_seed in ("0", "123")
        ]
        _, b = get_suite_matrix("tmt_sym")
        assert outputs[0] == outputs[1] == b.tobytes()

    def test_scale_grows_matrix(self):
        small = get_suite_matrix("thermal2", scale=1, with_rhs=False)
        large = get_suite_matrix("thermal2", scale=2, with_rhs=False)
        assert large.n_rows > small.n_rows

    def test_sections(self):
        assert len(azul_suite("medium")) == 23
        assert len(azul_suite("large")) == 25
        assert len(azul_suite("all")) == 25
        with pytest.raises(ValueError):
            azul_suite("bogus")


class TestLargeSuiteSections:
    """The medium/large suite entries (Fig. 28's bigger machines) must
    also be well-formed; dense eigenchecks don't scale, so diagonal
    dominance certifies SPD."""

    @pytest.mark.parametrize(
        "name", ["af_shell8", "StocF-1465", "audikw_1",
                 "Flan_1565", "Queen_4147"],
    )
    def test_builds_spd_by_dominance(self, name):
        from repro.sparse import is_diagonally_dominant

        matrix = get_suite_matrix(name, with_rhs=False)
        assert matrix.shape[0] == matrix.shape[1]
        assert is_symmetric(matrix)
        assert is_diagonally_dominant(matrix)

    def test_large_entries_are_larger(self):
        small = get_suite_matrix("consph", with_rhs=False)
        large = get_suite_matrix("Flan_1565", with_rhs=False)
        assert large.nnz > 3 * small.nnz


class TestDiagonalDominance:
    def test_detects_dominance(self, small_spd):
        from repro.sparse import is_diagonally_dominant

        assert is_diagonally_dominant(small_spd)

    def test_detects_non_dominance(self):
        from repro.sparse import COOMatrix, coo_to_csr, is_diagonally_dominant

        weak = coo_to_csr(COOMatrix(
            [0, 0, 1, 1], [0, 1, 0, 1], [1.0, 5.0, 5.0, 1.0], (2, 2)
        ))
        assert not is_diagonally_dominant(weak)
