"""Tests for dataflow program construction."""

import numpy as np
import pytest

from repro.comm import TorusGeometry
from repro.config import AzulConfig
from repro.core import map_block, map_round_robin
from repro.dataflow import (
    build_pcg_program,
    build_spmv_program,
    build_sptrsv_program,
)
from repro.dataflow.vector_ops import (
    VectorPhaseModel,
    axpy_cycles,
    dot_allreduce_cycles,
)
from repro.errors import SimulationError
from repro.precond import ic0
from repro.sparse import generators as gen
from repro.sparse import transpose_with_mapping
from tests.oracles.functional import functional_spmv, functional_sptrsv
from tests.oracles.kernels import sptrsv_lower_rowwise as ref_sptrsv_lower
from tests.oracles.kernels import sptrsv_upper_rowwise as ref_sptrsv_upper


@pytest.fixture(scope="module")
def operands():
    matrix = gen.random_geometric_fem(50, avg_degree=5, dofs_per_node=1, seed=4)
    lower = ic0(matrix)
    return matrix, lower


TORUS = TorusGeometry(4, 4)
N_TILES = 16


class TestTransposeWithMapping:
    def test_values_follow_mapping(self, operands):
        _, lower = operands
        transposed, source = transpose_with_mapping(lower)
        assert np.allclose(transposed.data, lower.data[source])
        assert np.allclose(transposed.to_dense(), lower.to_dense().T)

    def test_mapping_is_permutation(self, operands):
        _, lower = operands
        _, source = transpose_with_mapping(lower)
        assert np.array_equal(np.sort(source), np.arange(lower.nnz))


class TestSpMVProgram:
    def test_rejects_unknown_multicast_mode(self, operands):
        matrix, lower = operands
        placement = map_round_robin(matrix, lower, N_TILES)
        with pytest.raises(ValueError, match="unknown multicast mode"):
            build_spmv_program(matrix, placement.a_tile,
                               placement.vec_tile, TORUS,
                               multicast="broadcast")

    def test_functional_equivalence(self, operands, rng):
        matrix, lower = operands
        placement = map_round_robin(matrix, lower, N_TILES)
        program = build_spmv_program(
            matrix, placement.a_tile, placement.vec_tile, TORUS
        )
        x = rng.standard_normal(matrix.n_rows)
        assert np.allclose(functional_spmv(program, x), matrix.spmv(x))

    def test_total_fmacs_equals_nnz(self, operands):
        matrix, lower = operands
        placement = map_block(matrix, lower, N_TILES)
        program = build_spmv_program(
            matrix, placement.a_tile, placement.vec_tile, TORUS
        )
        assert program.total_fmacs == matrix.nnz
        assert program.flops() == 2 * matrix.nnz

    def test_single_tile_has_no_trees(self, operands):
        matrix, lower = operands
        placement = map_round_robin(matrix, lower, 1)
        program = build_spmv_program(
            matrix, placement.a_tile, placement.vec_tile, TorusGeometry(1, 1)
        )
        assert program.n_mcast_trees == 0
        assert program.n_red_trees == 0

    def test_local_counts_cover_all_nnz(self, operands):
        matrix, lower = operands
        placement = map_round_robin(matrix, lower, N_TILES)
        program = build_spmv_program(
            matrix, placement.a_tile, placement.vec_tile, TORUS
        )
        assert int(program.local_counts.sum()) == matrix.nnz


class TestSpTRSVProgram:
    def test_forward_functional(self, operands, rng):
        matrix, lower = operands
        placement = map_block(matrix, lower, N_TILES)
        program = build_sptrsv_program(
            lower, placement.l_tile, placement.vec_tile, TORUS
        )
        b = rng.standard_normal(lower.n_rows)
        assert np.allclose(
            functional_sptrsv(program, b), ref_sptrsv_lower(lower, b)
        )

    def test_backward_functional(self, operands, rng):
        matrix, lower = operands
        placement = map_block(matrix, lower, N_TILES)
        program = build_sptrsv_program(
            lower, placement.l_tile, placement.vec_tile, TORUS,
            transpose=True,
        )
        b = rng.standard_normal(lower.n_rows)
        assert np.allclose(
            functional_sptrsv(program, b),
            ref_sptrsv_upper(lower.transpose(), b),
        )

    def test_dependent_flag_and_diag(self, operands):
        matrix, lower = operands
        placement = map_block(matrix, lower, N_TILES)
        program = build_sptrsv_program(
            lower, placement.l_tile, placement.vec_tile, TORUS
        )
        assert program.dependent
        assert np.allclose(program.inv_diag, 1.0 / lower.diagonal())

    def test_off_diagonal_work_only(self, operands):
        matrix, lower = operands
        placement = map_block(matrix, lower, N_TILES)
        program = build_sptrsv_program(
            lower, placement.l_tile, placement.vec_tile, TORUS
        )
        assert program.total_fmacs == lower.nnz - lower.n_rows

    def test_initial_rows_have_no_dependences(self, operands):
        matrix, lower = operands
        placement = map_block(matrix, lower, N_TILES)
        program = build_sptrsv_program(
            lower, placement.l_tile, placement.vec_tile, TORUS
        )
        strict = lower.lower_triangle(include_diagonal=False)
        no_deps = set(np.nonzero(strict.row_nnz() == 0)[0])
        assert set(program.initial_rows) == no_deps
        assert len(program.initial_rows) > 0


class TestVectorPhase:
    def test_dot_cycles_scale_with_elements(self):
        config = AzulConfig(mesh_rows=4, mesh_cols=4)
        few = np.zeros(32, dtype=np.int64)       # all on tile 0
        spread = np.arange(32, dtype=np.int64) % 16
        assert dot_allreduce_cycles(few, TORUS, config) > \
            dot_allreduce_cycles(spread, TORUS, config)

    def test_axpy_cheaper_than_dot(self):
        config = AzulConfig(mesh_rows=4, mesh_cols=4)
        vec_tile = np.arange(64, dtype=np.int64) % 16
        assert axpy_cycles(vec_tile, config) < \
            dot_allreduce_cycles(vec_tile, TORUS, config)

    def test_phase_model_accounting(self):
        config = AzulConfig(mesh_rows=4, mesh_cols=4)
        vec_tile = np.arange(64, dtype=np.int64) % 16
        model = VectorPhaseModel(vec_tile, TORUS, config)
        assert model.cycles() > 0
        assert model.flops(64) == 2 * 64 * 6
        assert model.op_counts(64)["fmac"] == 64 * 6


class TestPCGProgram:
    def test_bundles_three_kernels(self, operands):
        matrix, lower = operands
        placement = map_block(matrix, lower, N_TILES)
        program = build_pcg_program(matrix, lower, placement, TORUS)
        names = [k.name for k in program.kernels]
        assert names == ["spmv", "sptrsv_lower", "sptrsv_upper"]
        assert program.n == matrix.n_rows

    def test_rejects_another_tile_count(self, operands):
        """The one check that a placement fits the machine it runs on."""
        matrix, lower = operands
        placement = map_block(matrix, lower, N_TILES)
        with pytest.raises(SimulationError, match="16 tiles.*has 4"):
            build_pcg_program(matrix, lower, placement, TorusGeometry(2, 2))

    def test_flops_per_iteration(self, operands):
        matrix, lower = operands
        placement = map_block(matrix, lower, N_TILES)
        program = build_pcg_program(matrix, lower, placement, TORUS)
        n = matrix.n_rows
        expected_sparse = (
            2 * matrix.nnz
            + 2 * (2 * (lower.nnz - n) + n) // 2 * 2  # two solves
        )
        # SpMV + two SpTRSVs + vector phase.
        sparse = 2 * matrix.nnz + 2 * (2 * (lower.nnz - n) + n)
        assert program.flops_per_iteration() == sparse + 2 * n * 6
