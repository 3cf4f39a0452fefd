"""Failure-injection tests: corrupted inputs must fail loudly.

A production library's error paths matter as much as its happy paths:
these tests deliberately break placements, programs, and inputs and
assert the library raises its typed exceptions instead of silently
producing wrong timing or wrong numbers.
"""

import numpy as np
import pytest

from repro.comm import TorusGeometry
from repro.config import AzulConfig
from repro.core import Placement, map_block
from repro.dataflow import (
    build_pcg_program,
    build_spmv_program,
    build_sptrsv_program,
)
from repro.errors import (
    CapacityError,
    MappingError,
    SimulationError,
)
from repro.precond import ic0
from repro.sim import AZUL_PE, AzulMachine, KernelSimulator
from repro.sparse import generators as gen


@pytest.fixture(scope="module")
def operands():
    matrix = gen.random_spd(40, nnz_per_row=4, seed=21)
    lower = ic0(matrix)
    b = gen.make_rhs(matrix, seed=22)
    return matrix, lower, b


CONFIG = AzulConfig(mesh_rows=4, mesh_cols=4)
TORUS = TorusGeometry(4, 4)


class TestCorruptPlacements:
    def test_out_of_range_tile_rejected_at_construction(self, operands):
        matrix, lower, _ = operands
        with pytest.raises(MappingError):
            Placement(
                n_tiles=16,
                a_tile=np.full(matrix.nnz, 16),  # one past the end
                l_tile=np.zeros(lower.nnz, dtype=int),
                vec_tile=np.zeros(matrix.n_rows, dtype=int),
            )

    def test_negative_tile_rejected(self, operands):
        matrix, lower, _ = operands
        bad = np.zeros(matrix.nnz, dtype=int)
        bad[0] = -1
        with pytest.raises(MappingError):
            Placement(
                n_tiles=16,
                a_tile=bad,
                l_tile=np.zeros(lower.nnz, dtype=int),
                vec_tile=np.zeros(matrix.n_rows, dtype=int),
            )

    def test_capacity_overflow_detected(self, operands):
        matrix, lower, _ = operands
        # Cram everything onto tile 0 of a tiny-SRAM machine.
        hoarding = Placement(
            n_tiles=16,
            a_tile=np.zeros(matrix.nnz, dtype=int),
            l_tile=np.zeros(lower.nnz, dtype=int),
            vec_tile=np.zeros(matrix.n_rows, dtype=int),
        )
        tiny = CONFIG.with_(data_sram_bytes=1024)
        with pytest.raises(CapacityError):
            hoarding.validate_capacity(tiny)


class TestCorruptPrograms:
    def test_tampered_counters_deadlock_is_detected(self, operands):
        """Inflating a completion counter starves a row forever; the
        engine must diagnose the deadlock, not hang or return zeros."""
        matrix, lower, b = operands
        placement = map_block(matrix, lower, 16)
        program = build_sptrsv_program(
            lower, placement.l_tile, placement.vec_tile, TORUS
        )
        program.local_counts[0] += 1  # expects one phantom FMAC
        with pytest.raises(SimulationError, match="deadlock"):
            KernelSimulator(program, TORUS, CONFIG, AZUL_PE).run(b=b)

    def test_missing_input_vector(self, operands):
        matrix, lower, _ = operands
        placement = map_block(matrix, lower, 16)
        program = build_spmv_program(
            matrix, placement.a_tile, placement.vec_tile, TORUS
        )
        with pytest.raises(SimulationError):
            KernelSimulator(program, TORUS, CONFIG, AZUL_PE).run()

    def test_machine_tile_count_mismatch(self, operands):
        matrix, lower, b = operands
        placement = map_block(matrix, lower, 4)
        with pytest.raises(SimulationError):
            AzulMachine(CONFIG).simulate_pcg(matrix, lower, placement, b)


class TestCorruptNumerics:
    def test_nan_inputs_propagate_not_crash(self, operands):
        """NaNs flow through the dataflow like hardware would: the
        simulation completes and the NaN appears in the output."""
        matrix, lower, _ = operands
        placement = map_block(matrix, lower, 16)
        program = build_spmv_program(
            matrix, placement.a_tile, placement.vec_tile, TORUS
        )
        x = np.ones(matrix.n_rows)
        x[3] = np.nan
        result = KernelSimulator(program, TORUS, CONFIG, AZUL_PE).run(x=x)
        reference = matrix.spmv(x)
        assert np.array_equal(
            np.isnan(result.output), np.isnan(reference)
        )

    def test_verification_catches_wrong_results(self, operands):
        """If the machine's answer were wrong, verification must raise."""
        from repro.sim.machine import verify_iteration

        matrix, lower, b = operands
        placement = map_block(matrix, lower, 16)
        machine = AzulMachine(CONFIG)
        result = machine.simulate_iteration(
            build_pcg_program(matrix, lower, placement, machine.torus),
            p=b, r=b,
        )
        # Corrupt the recorded SpMV output, then re-verify.
        result.kernel_results[0].output[0] += 1.0
        with pytest.raises(SimulationError, match="SpMV"):
            verify_iteration(result, matrix, lower, b)


class TestCorruptModelInputs:
    def test_power_report_rejects_zero_time(self, operands):
        from repro.models import power_report

        matrix, lower, b = operands
        placement = map_block(matrix, lower, 16)
        result = AzulMachine(CONFIG).simulate_pcg(matrix, lower, placement, b)
        result.total_cycles = 0
        with pytest.raises(ValueError):
            power_report(result, CONFIG)
