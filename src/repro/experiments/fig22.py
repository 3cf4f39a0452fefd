"""Fig. 22 analog: Azul runtime breakdown by kernel.

Per-matrix fraction of iteration cycles in SpMV, the two SpTRSVs, and
vector operations.  The paper's shape: SpTRSV dominates (it is
parallelism-limited while SpMV is not), and vector ops are small.
"""

from __future__ import annotations

from typing import Optional

from repro.config import AzulConfig
from repro.experiments.common import ExperimentSession, default_matrices
from repro.experiments.spec import ExperimentPlan, register
from repro.parallel import SimPoint
from repro.perf import ExperimentResult


@register("fig22", title="Azul runtime breakdown by kernel",
          tags=("paper", "figure", "sim", "sweep"))
def spec(matrices=None, config: Optional[AzulConfig] = None,
         scale: int = 1) -> ExperimentPlan:
    """Per-kernel runtime fractions on simulated Azul."""
    matrices = list(matrices or default_matrices())
    session = ExperimentSession(config, scale=scale)

    points = {name: SimPoint(name) for name in matrices}

    def reduce(sims) -> ExperimentResult:
        result = ExperimentResult(
            experiment="fig22",
            title="Azul PCG runtime breakdown by kernel (normalized)",
            columns=["matrix", "spmv", "sptrsv", "vector"],
        )
        for name in matrices:
            sim = sims[name]
            phases = sim.cycles_by_phase()
            total = sim.total_cycles
            result.add_row(
                matrix=name,
                spmv=phases["spmv"] / total,
                sptrsv=(
                    phases["sptrsv_lower"] + phases["sptrsv_upper"]
                ) / total,
                vector=phases["vector"] / total,
            )
        result.notes = (
            "Paper shape (Fig. 22): SpTRSV remains the dominant phase "
            "even on Azul; SpMV achieves consistently high performance."
        )
        return result

    return ExperimentPlan(session=session, points=points, reduce=reduce)
