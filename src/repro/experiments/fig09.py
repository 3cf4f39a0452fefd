"""Fig. 9 analog: Dalorex running PCG.

Dalorex = the same all-SRAM machine with (a) Round-Robin data mapping
and (b) in-order scalar cores whose bookkeeping instructions consume
most issue slots.  The paper measures at most 187 GFLOP/s, ~1% of the
16 TFLOP/s peak, despite all data being on-chip.
"""

from __future__ import annotations

from typing import Optional

from repro.config import AzulConfig
from repro.experiments.common import ExperimentSession, default_matrices
from repro.experiments.spec import ExperimentPlan, register
from repro.parallel import SimPoint
from repro.perf import ExperimentResult


@register("fig09", title="Dalorex PCG throughput",
          tags=("paper", "figure", "sim", "sweep"))
def spec(matrices=None, config: Optional[AzulConfig] = None,
         scale: int = 1) -> ExperimentPlan:
    """Simulate Dalorex (round-robin mapping + in-order cores) on PCG."""
    matrices = list(matrices or default_matrices())
    session = ExperimentSession(config, scale=scale)

    points = {
        name: SimPoint(name, mapper="round_robin", pe="dalorex")
        for name in matrices
    }

    def reduce(sims) -> ExperimentResult:
        result = ExperimentResult(
            experiment="fig09",
            title="Dalorex PCG throughput (GFLOP/s and fraction of peak)",
            columns=["matrix", "gflops", "fraction_of_peak"],
        )
        for name in matrices:
            sim = sims[name]
            result.add_row(
                matrix=name,
                gflops=sim.gflops(),
                fraction_of_peak=sim.utilization(),
            )
        worst = max(result.column("fraction_of_peak"))
        result.notes = (
            f"Peak fraction <= {worst:.1%}; the paper's Dalorex reaches "
            "~1% of its 16 TFLOP/s peak (Fig. 9) — all-SRAM alone is not "
            "enough."
        )
        return result

    return ExperimentPlan(session=session, points=points, reduce=reduce)
