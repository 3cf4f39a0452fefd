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
from repro.dataflow.vector_ops import VectorPhaseModel
from repro.errors import SimulationError
from repro.sim.engine import KernelSimulator
from repro.sim.pe import AZUL_PE, PEModel
from repro.sim.stats import IterationResult, KernelResult
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import level_sptrsv_lower, level_sptrsv_transposed


class AzulMachine:
    """A simulated Azul machine executing mapped PCG iterations.

    ``self.torus`` is the NoC geometry the configuration describes
    (``config.topology`` selects torus or mesh via
    :func:`repro.comm.make_geometry`); programs are compiled over it
    (:func:`~repro.dataflow.program.build_pcg_program`) and the
    vector-phase model reads its reduction depth.
    """

    def __init__(self, config: Optional[AzulConfig] = None,
                 pe: PEModel = AZUL_PE):
        self.config = config or AzulConfig()
        self.pe = pe
        self.torus = make_geometry(self.config)

    # ------------------------------------------------------------------
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
        The vector phase is costed from this machine's configuration.
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
        vector_model = VectorPhaseModel(
            program.spmv.vec_tile, self.torus, self.config,
        )
        vector_cycles = vector_model.cycles()
        kernel_results = [spmv_result, forward_result, backward_result]
        total = sum(k.cycles for k in kernel_results) + vector_cycles
        return IterationResult(
            kernel_results=kernel_results,
            vector_cycles=vector_cycles,
            total_cycles=total,
            flops_per_iteration=program.flops_per_iteration(),
            config=self.config,
            vector_ops=vector_model.op_counts(program.n),
        )

    def simulate_pcg(self, matrix: CSRMatrix, lower: CSRMatrix,
                     placement: Placement, b: np.ndarray,
                     multicast: str = "tree",
                     record_issue_trace: bool = False) -> IterationResult:
        """Compile, simulate and verify one steady-state PCG iteration.

        The dataflow outputs are verified against the functional kernels
        (:func:`verify_iteration`, the paper's functional check against
        Ginkgo, Sec. VI-A).  ``record_issue_trace`` forwards to each
        kernel simulation (the Fig. 17 timeline / Chrome-trace inputs).
        An unverified result is :meth:`simulate_iteration` of
        ``build_pcg_program(A, L, placement, machine.torus)``.
        """
        program = build_pcg_program(matrix, lower, placement, self.torus,
                                    multicast=multicast)
        result = self.simulate_iteration(
            program, p=b, r=b, record_issue_trace=record_issue_trace,
        )
        verify_iteration(result, matrix, lower, b)
        return result


def verify_iteration(result: IterationResult, matrix: CSRMatrix,
                     lower: CSRMatrix, b: np.ndarray):
    """Assert the simulated dataflow computed the right numbers.

    The expected solves run the level-scheduled kernels over the
    triangular schedules cached on ``lower``: its forward schedule,
    whose levels the Azul mapping balances over time
    (:mod:`repro.core.quantiles`), and the backward schedule of its
    transpose, so verifying many simulations of one factor builds each
    once.
    """
    spmv_result, forward_result, backward_result = result.kernel_results
    expected_y = matrix.spmv(b)
    if not np.allclose(spmv_result.output, expected_y, rtol=1e-9, atol=1e-9):
        raise SimulationError("simulated SpMV result mismatch")
    expected_w = level_sptrsv_lower(lower, b)
    if not np.allclose(forward_result.output, expected_w,
                       rtol=1e-9, atol=1e-9):
        raise SimulationError("simulated forward SpTRSV result mismatch")
    expected_z = level_sptrsv_transposed(lower, expected_w)
    if not np.allclose(backward_result.output, expected_z,
                       rtol=1e-8, atol=1e-9):
        raise SimulationError("simulated backward SpTRSV result mismatch")
