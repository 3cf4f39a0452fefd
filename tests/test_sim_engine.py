"""Tests for the cycle-level simulator."""

import numpy as np
import pytest

from repro.comm import TorusGeometry
from repro.config import AzulConfig
from repro.core import map_azul, map_block, map_round_robin
from repro.dataflow import build_spmv_program, build_sptrsv_program
from repro.errors import SimulationError
from repro.hypergraph import PartitionerOptions
from repro.precond import ic0
from repro.sim import (
    AZUL_PE,
    AZUL_PE_SINGLE_THREADED,
    DALOREX_PE,
    IDEAL_PE,
    AzulMachine,
    KernelSimulator,
    breakdown_from_results,
    pe_model_by_name,
)
from repro.sparse import generators as gen
from tests.oracles.kernels import sptrsv_lower_rowwise as ref_sptrsv_lower


@pytest.fixture(scope="module")
def operands():
    matrix = gen.random_geometric_fem(60, avg_degree=6, dofs_per_node=1, seed=9)
    lower = ic0(matrix)
    b = gen.make_rhs(matrix, seed=10)
    return matrix, lower, b


CONFIG = AzulConfig(mesh_rows=4, mesh_cols=4)
TORUS = TorusGeometry(4, 4)
N_TILES = 16


def _machine(pe=AZUL_PE):
    return AzulMachine(CONFIG, pe)


class TestFunctionalCorrectness:
    """The paper's check: simulator output must match the reference."""

    def test_spmv_output(self, operands, rng):
        matrix, lower, _ = operands
        placement = map_round_robin(matrix, lower, N_TILES)
        program = build_spmv_program(
            matrix, placement.a_tile, placement.vec_tile, TORUS
        )
        x = rng.standard_normal(matrix.n_rows)
        result = KernelSimulator(program, TORUS, CONFIG, AZUL_PE).run(x=x)
        assert np.allclose(result.output, matrix.spmv(x))

    def test_sptrsv_output(self, operands, rng):
        matrix, lower, _ = operands
        placement = map_round_robin(matrix, lower, N_TILES)
        program = build_sptrsv_program(
            lower, placement.l_tile, placement.vec_tile, TORUS
        )
        b = rng.standard_normal(matrix.n_rows)
        result = KernelSimulator(program, TORUS, CONFIG, AZUL_PE).run(b=b)
        assert np.allclose(result.output, ref_sptrsv_lower(lower, b))

    def test_full_iteration_verified(self, operands):
        matrix, lower, b = operands
        placement = map_block(matrix, lower, N_TILES)
        # simulate_pcg verifies: it raises on any numeric mismatch.
        result = _machine().simulate_pcg(matrix, lower, placement, b)
        assert result.total_cycles > 0

    @pytest.mark.parametrize(
        "pe", [AZUL_PE, AZUL_PE_SINGLE_THREADED, DALOREX_PE, IDEAL_PE]
    )
    def test_all_pe_models_functionally_identical(self, operands, pe):
        """Timing models must never change computed values."""
        matrix, lower, b = operands
        placement = map_block(matrix, lower, N_TILES)
        result = _machine(pe).simulate_pcg(matrix, lower, placement, b)
        assert result.total_cycles > 0

    def test_verification_builds_the_upper_schedule_once(self,
                                                         monkeypatch):
        """Verifying many simulations of one factor builds its ``L^T``
        schedule once, and still reads the factor's current values."""
        from repro.sim.machine import verify_iteration
        from repro.sparse import schedule

        matrix = gen.grid_laplacian_2d(8, 8)
        lower = ic0(matrix)
        b = gen.make_rhs(matrix, seed=3)
        built = []
        build = schedule._build_triangular

        def counted(tri, is_lower, unit_diagonal):
            built.append(is_lower)
            return build(tri, is_lower, unit_diagonal)

        monkeypatch.setattr(schedule, "_build_triangular", counted)
        results = [
            _machine(pe).simulate_pcg(
                matrix, lower, mapper(matrix, lower, N_TILES), b,
            )
            for mapper in (map_block, map_round_robin)
            for pe in (AZUL_PE, DALOREX_PE)
        ]
        assert built.count(False) == 1
        # Halve the off-diagonal values in place: a simulation of the
        # changed factor verifies against its new values...
        rows = np.repeat(np.arange(lower.n_rows), lower.row_nnz())
        lower.data[lower.indices != rows] *= 0.5
        _machine().simulate_pcg(
            matrix, lower, map_block(matrix, lower, N_TILES), b,
        )
        assert built.count(False) == 1
        # ...and one simulated on the old values no longer does.
        with pytest.raises(SimulationError, match="mismatch"):
            verify_iteration(results[0], matrix, lower, b)

    def test_missing_inputs_rejected(self, operands):
        matrix, lower, _ = operands
        placement = map_block(matrix, lower, N_TILES)
        program = build_spmv_program(
            matrix, placement.a_tile, placement.vec_tile, TORUS
        )
        with pytest.raises(SimulationError):
            KernelSimulator(program, TORUS, CONFIG, AZUL_PE).run()


class TestTimingProperties:
    def test_ideal_pe_is_fastest(self, operands):
        matrix, lower, b = operands
        placement = map_block(matrix, lower, N_TILES)
        ideal = _machine(IDEAL_PE).simulate_pcg(matrix, lower, placement, b)
        azul = _machine(AZUL_PE).simulate_pcg(matrix, lower, placement, b)
        dalorex = _machine(DALOREX_PE).simulate_pcg(
            matrix, lower, placement, b
        )
        assert ideal.total_cycles <= azul.total_cycles
        assert azul.total_cycles < dalorex.total_cycles

    def test_multithreading_helps(self, operands):
        """Fig. 27: multithreaded PEs beat single-threaded ones."""
        matrix, lower, b = operands
        placement = map_block(matrix, lower, N_TILES)
        multi = _machine(AZUL_PE).simulate_pcg(matrix, lower, placement, b)
        single = _machine(AZUL_PE_SINGLE_THREADED).simulate_pcg(
            matrix, lower, placement, b
        )
        assert multi.total_cycles < single.total_cycles

    def test_azul_mapping_beats_round_robin(self, operands):
        """Fig. 2/23 at small scale: the mapping drives performance."""
        matrix, lower, b = operands
        azul_placement = map_azul(
            matrix, lower, N_TILES,
            options=PartitionerOptions.speed(seed=5),
        )
        rr_placement = map_round_robin(matrix, lower, N_TILES)
        machine = _machine()
        azul = machine.simulate_pcg(matrix, lower, azul_placement, b)
        rr = machine.simulate_pcg(matrix, lower, rr_placement, b)
        assert azul.link_activations() < rr.link_activations()
        assert azul.total_cycles <= rr.total_cycles

    def test_hop_latency_slows_execution(self, operands):
        """Fig. 25: higher per-hop latency costs some throughput."""
        matrix, lower, b = operands
        placement = map_round_robin(matrix, lower, N_TILES)
        fast = AzulMachine(CONFIG.with_(hop_cycles=1)).simulate_pcg(
            matrix, lower, placement, b
        )
        slow = AzulMachine(CONFIG.with_(hop_cycles=4)).simulate_pcg(
            matrix, lower, placement, b
        )
        assert slow.total_cycles > fast.total_cycles

    def test_sram_latency_slows_execution(self, operands):
        """Fig. 26 analog."""
        matrix, lower, b = operands
        placement = map_round_robin(matrix, lower, N_TILES)
        fast = AzulMachine(CONFIG.with_(sram_access_cycles=1)).simulate_pcg(
            matrix, lower, placement, b
        )
        slow = AzulMachine(CONFIG.with_(sram_access_cycles=4)).simulate_pcg(
            matrix, lower, placement, b
        )
        assert slow.total_cycles > fast.total_cycles

    def test_single_tile_runs_serially(self, operands):
        matrix, lower, b = operands
        config = AzulConfig(mesh_rows=1, mesh_cols=1)
        placement = map_round_robin(matrix, lower, 1)
        result = AzulMachine(config).simulate_pcg(matrix, lower, placement, b)
        # One PE, one op/cycle: cycles at least the total op count.
        spmv = result.kernel_results[0]
        assert spmv.cycles >= matrix.nnz
        assert result.link_activations() == 0


class TestStatsAccounting:
    def test_op_counts(self, operands):
        matrix, lower, b = operands
        placement = map_block(matrix, lower, N_TILES)
        result = _machine().simulate_pcg(matrix, lower, placement, b)
        spmv = result.kernel_results[0]
        assert spmv.op_counts["fmac"] == matrix.nnz
        assert spmv.op_counts["mul"] == 0
        forward = result.kernel_results[1]
        assert forward.op_counts["fmac"] == lower.nnz - lower.n_rows
        assert forward.op_counts["mul"] == lower.n_rows

    def test_gflops_positive_and_below_peak(self, operands):
        matrix, lower, b = operands
        placement = map_block(matrix, lower, N_TILES)
        result = _machine().simulate_pcg(matrix, lower, placement, b)
        assert 0 < result.gflops()
        assert result.utilization() < 1.0

    def test_cycle_breakdown_sums_to_one(self, operands):
        matrix, lower, b = operands
        placement = map_block(matrix, lower, N_TILES)
        result = _machine().simulate_pcg(matrix, lower, placement, b)
        breakdown = breakdown_from_results(
            result.kernel_results, N_TILES,
            extra_cycles=result.vector_cycles,
        )
        total = sum(breakdown.as_dict().values())
        assert abs(total - 1.0) < 1e-9
        assert breakdown.fmac > 0
        assert breakdown.stall >= 0

    def test_per_phase_cycles(self, operands):
        matrix, lower, b = operands
        placement = map_block(matrix, lower, N_TILES)
        result = _machine().simulate_pcg(matrix, lower, placement, b)
        phases = result.cycles_by_phase()
        assert set(phases) == {
            "spmv", "sptrsv_lower", "sptrsv_upper", "vector",
        }
        assert sum(phases.values()) == result.total_cycles

    def test_placement_machine_mismatch_rejected(self, operands):
        matrix, lower, b = operands
        placement = map_block(matrix, lower, 4)  # wrong tile count
        with pytest.raises(SimulationError):
            _machine().simulate_pcg(matrix, lower, placement, b)

    def test_pe_model_lookup(self):
        assert pe_model_by_name("dalorex") is DALOREX_PE
        with pytest.raises(KeyError):
            pe_model_by_name("cerebras")
