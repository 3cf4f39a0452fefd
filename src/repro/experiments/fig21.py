"""Fig. 21 analog: Azul PE cycle breakdown.

Fraction of PE issue slots spent on Fmac/Add/Mul/Send versus stalls,
per matrix.  The paper's shape: FMACs take >40% of slots on almost all
inputs; stalls grow on parallelism-limited matrices; few-nonzeros-per-
row matrices spend more on reductions (Sends and Adds).
"""

from __future__ import annotations

from typing import Optional

from repro.config import AzulConfig
from repro.experiments.common import ExperimentSession, default_matrices
from repro.experiments.spec import ExperimentPlan, register
from repro.parallel import SimPoint
from repro.perf import ExperimentResult
from repro.sim.stats import breakdown_from_results


@register("fig21", title="Azul PE cycle breakdown",
          tags=("paper", "figure", "sim", "sweep"))
def spec(matrices=None, config: Optional[AzulConfig] = None,
         scale: int = 1, jobs: Optional[int] = None) -> ExperimentPlan:
    """Per-matrix PE cycle breakdown on simulated Azul."""
    matrices = list(matrices or default_matrices())
    session = ExperimentSession(config, scale=scale)

    points = {name: SimPoint(name) for name in matrices}

    def reduce(sims) -> ExperimentResult:
        config = session.config
        result = ExperimentResult(
            experiment="fig21",
            title="Azul PE cycle breakdown (fractions of issue slots)",
            columns=["matrix", "fmac", "add", "mul", "send", "stall"],
        )
        for name in matrices:
            sim = sims[name]
            breakdown = breakdown_from_results(
                sim.kernel_results, config.num_tiles,
                extra_cycles=sim.vector_cycles,
                extra_ops=sim.vector_ops,
            )
            result.add_row(matrix=name, **breakdown.as_dict())
        result.notes = (
            "Paper shape (Fig. 21): FMAC slots dominate useful work; "
            "stalls come chiefly from SpTRSV's limited parallelism."
        )
        return result

    return ExperimentPlan(session=session, points=points, reduce=reduce)


def run(matrices=None, config: Optional[AzulConfig] = None,
        scale: int = 1, jobs: Optional[int] = None) -> ExperimentResult:
    """Per-matrix PE cycle breakdown on simulated Azul."""
    return spec.run(jobs=jobs, matrices=matrices, config=config,
                    scale=scale)


def main():
    print(run())


if __name__ == "__main__":
    main()
