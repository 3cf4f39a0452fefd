"""The simulated Azul machine: full PCG-iteration execution.

Combines the three sparse-kernel simulations with the analytic
vector-phase model to produce per-iteration timing, the per-kernel
runtime breakdown (Fig. 22), PE cycle breakdown (Fig. 21), and
steady-state GFLOP/s.  End-to-end solve time is cycles-per-iteration
times the iteration count measured by the functional solver — the same
steady-state methodology the paper uses.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.comm import make_geometry
from repro.config import AzulConfig
from repro.core.placement import Placement
from repro.dataflow.program import PCGIterationProgram, build_pcg_program
from repro.errors import SimulationError
from repro.sim.engine import KernelSimulator
from repro.sim.fabric import FabricModel
from repro.sim.pe import AZUL_PE, PEModel
from repro.sim.stats import IterationResult, KernelResult
from repro.sparse.csr import CSRMatrix


class AzulMachine:
    """A simulated Azul machine executing mapped PCG iterations.

    The machine's view of the NoC is a
    :class:`~repro.sim.fabric.FabricModel` over the configured geometry
    (``config.topology`` selects torus or mesh via
    :func:`repro.comm.make_geometry`); tree/link queries go through
    ``self.fabric`` rather than the raw geometry.  ``self.torus`` is
    kept as a backwards-compatible alias for the geometry object.
    """

    def __init__(self, config: Optional[AzulConfig] = None,
                 pe: PEModel = AZUL_PE):
        self.config = config or AzulConfig()
        self.pe = pe
        self.fabric = FabricModel(
            make_geometry(self.config), self.config.hop_cycles
        )
        self.torus = self.fabric.geometry

    # ------------------------------------------------------------------
    def compile(self, matrix: CSRMatrix, lower: CSRMatrix,
                placement: Placement,
                multicast: str = "tree") -> PCGIterationProgram:
        """Compile a mapped (A, L) pair into an iteration program."""
        if placement.n_tiles != self.config.num_tiles:
            raise SimulationError(
                f"placement targets {placement.n_tiles} tiles but the "
                f"machine has {self.config.num_tiles}"
            )
        return build_pcg_program(
            matrix, lower, placement, self.torus, self.config,
            multicast=multicast,
        )

    def run_kernel(self, program_kernel, x=None, b=None,
                   record_issue_trace: bool = False) -> KernelResult:
        """Simulate a single compiled kernel."""
        simulator = KernelSimulator(
            program_kernel, self.torus, self.config, self.pe,
            record_issue_trace=record_issue_trace,
        )
        return simulator.run(x=x, b=b)

    # ------------------------------------------------------------------
    def simulate_iteration(self, program: PCGIterationProgram,
                           p: np.ndarray, r: np.ndarray,
                           record_issue_trace: bool = False
                           ) -> IterationResult:
        """Simulate one PCG iteration's kernels on representative vectors.

        ``p`` feeds the SpMV; ``r`` feeds the preconditioner solves.
        The numeric outputs are returned inside the kernel results so
        callers can verify them against the reference kernels.  With
        ``record_issue_trace`` each kernel result carries its per-op
        issue log (see :mod:`repro.sim.trace`).
        """
        record = record_issue_trace
        spmv_result = self.run_kernel(program.spmv, x=p,
                                      record_issue_trace=record)
        forward_result = self.run_kernel(program.sptrsv_lower, b=r,
                                         record_issue_trace=record)
        backward_result = self.run_kernel(
            program.sptrsv_upper, b=forward_result.output,
            record_issue_trace=record,
        )
        vector_cycles = program.vector_phase.cycles()
        kernel_results = [spmv_result, forward_result, backward_result]
        total = sum(k.cycles for k in kernel_results) + vector_cycles
        return IterationResult(
            kernel_results=kernel_results,
            vector_cycles=vector_cycles,
            total_cycles=total,
            flops_per_iteration=program.flops_per_iteration(),
            config=self.config,
            vector_ops=program.vector_phase.op_counts(program.n),
        )

    def simulate_pcg(self, matrix: CSRMatrix, lower: CSRMatrix,
                     placement: Placement, b: np.ndarray,
                     check: bool = True,
                     multicast: str = "tree",
                     record_issue_trace: bool = False) -> IterationResult:
        """Compile and simulate one steady-state PCG iteration.

        When ``check`` is true, the dataflow outputs are verified
        against the reference kernels (the paper's functional check
        against Ginkgo, Sec. VI-A).  ``record_issue_trace`` forwards to
        each kernel simulation (the Fig. 17 timeline / Chrome-trace
        inputs).
        """
        program = self.compile(matrix, lower, placement,
                               multicast=multicast)
        result = self.simulate_iteration(
            program, p=b, r=b, record_issue_trace=record_issue_trace,
        )
        if check:
            verify_iteration(result, matrix, lower, b)
        return result


def verify_iteration(result: IterationResult, matrix: CSRMatrix,
                     lower: CSRMatrix, b: np.ndarray):
    """Assert the simulated dataflow computed the right numbers."""
    from repro.sparse.ops import sptrsv_lower as ref_lower
    from repro.sparse.ops import sptrsv_upper as ref_upper

    spmv_result, forward_result, backward_result = result.kernel_results
    expected_y = matrix.spmv(b)
    if not np.allclose(spmv_result.output, expected_y, rtol=1e-9, atol=1e-9):
        raise SimulationError("simulated SpMV result mismatch")
    expected_w = ref_lower(lower, b)
    if not np.allclose(forward_result.output, expected_w,
                       rtol=1e-9, atol=1e-9):
        raise SimulationError("simulated forward SpTRSV result mismatch")
    expected_z = ref_upper(lower.transpose(), expected_w)
    if not np.allclose(backward_result.output, expected_z,
                       rtol=1e-8, atol=1e-9):
        raise SimulationError("simulated backward SpTRSV result mismatch")
