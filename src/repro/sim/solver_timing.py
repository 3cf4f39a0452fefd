"""Per-iteration Azul timing for the whole Table II solver family.

Sec. II-B: "the computations Azul accelerates are very general: other
iterative solvers like GMRES and BiCGStab have the same kernels and
challenges."  Every Table II solver's iteration is a combination of the
three kernels the machine already executes (SpMV, forward/backward
SpTRSV) plus vector work, so its steady-state cycle cost follows from
the simulated kernel times and an iteration *recipe*.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataflow.program import PCGIterationProgram
from repro.dataflow.vector_ops import axpy_cycles, dot_allreduce_cycles
from repro.sim.machine import AzulMachine
from repro.sim.stats import IterationResult


@dataclass(frozen=True)
class IterationRecipe:
    """Kernel counts of one iteration of an iterative solver.

    Attributes
    ----------
    name:
        Solver (+ preconditioner) label.
    n_spmv:
        SpMVs with A per iteration.
    n_precond_solves:
        Preconditioner applications (each = one forward + one backward
        SpTRSV on the factor).
    n_dots, n_axpys:
        Vector reductions and element-wise updates per iteration.
    """

    name: str
    n_spmv: int
    n_precond_solves: int
    n_dots: int
    n_axpys: int


#: Iteration recipes for the Table II solver family.  Dot/AXPY counts
#: follow the standard algorithm statements (GMRES uses the average
#: Gram-Schmidt depth of a restart-30 cycle).
RECIPES = (
    IterationRecipe("CG (no preconditioner)", 1, 0, 3, 3),
    IterationRecipe("PCG + Jacobi", 1, 0, 3, 4),
    IterationRecipe("PCG + IC(0)", 1, 1, 3, 3),
    IterationRecipe("PCG + SymGS", 1, 1, 3, 3),
    IterationRecipe("BiCGStab", 2, 0, 5, 6),
    IterationRecipe("BiCGStab + ILU(0)", 2, 2, 5, 6),
    IterationRecipe("GMRES(30)", 1, 0, 16, 16),
    IterationRecipe("Power iteration", 1, 0, 2, 1),
    IterationRecipe("Chebyshev iteration", 1, 0, 1, 3),
)


def solver_iteration_cycles(machine: AzulMachine,
                            program: PCGIterationProgram,
                            base: IterationResult,
                            recipe: IterationRecipe) -> dict:
    """Cycles and FLOPs of one iteration of ``recipe``'s solver.

    Reuses the simulated kernel times from a PCG iteration ``base`` on
    the same mapped operands: SpMV and the two SpTRSVs are identical
    work regardless of which solver invokes them.
    """
    spmv_result, forward_result, backward_result = base.kernel_results
    solve_cycles = forward_result.cycles + backward_result.cycles
    config = machine.config
    # The fabric exposes the geometry's reduction depth; solver timing
    # never touches the raw geometry object.
    dot = dot_allreduce_cycles(program.vector_phase.vec_tile,
                               machine.fabric, config)
    axpy = axpy_cycles(program.vector_phase.vec_tile, config)
    cycles = (
        recipe.n_spmv * spmv_result.cycles
        + recipe.n_precond_solves * solve_cycles
        + recipe.n_dots * dot
        + recipe.n_axpys * axpy
    )
    n = program.n
    flops = (
        recipe.n_spmv * program.spmv.flops()
        + recipe.n_precond_solves
        * (program.sptrsv_lower.flops() + program.sptrsv_upper.flops())
        + 2 * n * (recipe.n_dots + recipe.n_axpys)
    )
    seconds = cycles / config.frequency_hz
    return {
        "solver": recipe.name,
        "cycles": cycles,
        "flops": flops,
        "gflops": flops / seconds / 1e9 if seconds > 0 else 0.0,
    }
