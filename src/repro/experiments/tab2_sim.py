"""Extension: the whole Table II solver family timed on Azul.

Sec. II-B argues Azul's kernels generalize beyond PCG; this experiment
times one iteration of each Table II solver on the same mapped operands
and shows they all achieve comparable throughput — the machine
accelerates the kernels, not one specific algorithm.
"""

from __future__ import annotations

from typing import Optional

from repro.config import AzulConfig
from repro.experiments.common import ExperimentSession
from repro.experiments.spec import ExperimentPlan, register
from repro.parallel import SimPoint
from repro.perf import ExperimentResult
from repro.sim.machine import AzulMachine
from repro.sim.solver_timing import RECIPES, solver_iteration_cycles


@register("tab2_sim", title="Table II solver family on Azul",
          tags=("extension", "table", "sim", "sweep"))
def spec(matrix: str = "consph", config: Optional[AzulConfig] = None,
         scale: int = 1, jobs: Optional[int] = None) -> ExperimentPlan:
    """Per-solver iteration cycles and GFLOP/s on one mapped matrix."""
    session = ExperimentSession(config, scale=scale)

    # The base PCG iteration is a standard sweep point: routed through
    # the executor it shares the artifact cache and the global sweep
    # with every other experiment that simulates this matrix.
    points = {"pcg": SimPoint(matrix, check=False)}

    def reduce(sims) -> ExperimentResult:
        config = session.config
        prepared = session.prepare(matrix)
        placement = session.placement(matrix, "azul")
        machine = AzulMachine(config)
        program = machine.compile(prepared.matrix, prepared.lower,
                                  placement)
        base = sims["pcg"]

        result = ExperimentResult(
            experiment="tab2_sim",
            title=f"Table II solver family on Azul ({matrix})",
            columns=["solver", "cycles_per_iter", "gflops"],
        )
        for recipe in RECIPES:
            timing = solver_iteration_cycles(machine, program, base,
                                             recipe)
            result.add_row(
                solver=timing["solver"],
                cycles_per_iter=timing["cycles"],
                gflops=timing["gflops"],
            )
        values = result.column("gflops")
        result.extras = {
            "min_gflops": min(values),
            "max_gflops": max(values),
        }
        result.notes = (
            "All Table II solvers run within a narrow throughput band on "
            "the same mapped operands — Azul accelerates the kernels, "
            "not one algorithm (Sec. II-B)."
        )
        return result

    return ExperimentPlan(session=session, points=points, reduce=reduce)


def run(matrix: str = "consph", config: Optional[AzulConfig] = None,
        scale: int = 1, jobs: Optional[int] = None) -> ExperimentResult:
    """Per-solver iteration cycles and GFLOP/s on one mapped matrix."""
    return spec.run(jobs=jobs, matrix=matrix, config=config, scale=scale)


def main():
    print(run())


if __name__ == "__main__":
    main()
