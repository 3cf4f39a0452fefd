"""Fig. 26 analog: sensitivity to SRAM access latency.

Gmean throughput sweeping scratchpad latency from 1 to 4 cycles; the
paper measures ~3% loss per extra cycle (multithreading hides latency).
"""

from __future__ import annotations

from typing import Optional

from repro.config import AzulConfig
from repro.experiments.common import ExperimentSession, \
    default_experiment_config, default_matrices
from repro.experiments.spec import ExperimentPlan, register
from repro.parallel import SimPoint
from repro.perf import ExperimentResult, gmean


@register("fig26", title="Sensitivity to SRAM access latency",
          tags=("paper", "figure", "sim", "sweep"))
def spec(matrices=None, config: Optional[AzulConfig] = None,
         scale: int = 1, latencies=(1, 2, 3, 4)) -> ExperimentPlan:
    """Sweep SRAM latency and report gmean GFLOP/s."""
    matrices = list(matrices or default_matrices())
    config = config or default_experiment_config()
    session = ExperimentSession(config, scale=scale)

    points = {
        f"{name}/sram{latency}": SimPoint(
            name, config=config.with_(sram_access_cycles=latency)
        )
        for latency in latencies for name in matrices
    }

    def reduce(sims) -> ExperimentResult:
        result = ExperimentResult(
            experiment="fig26",
            title="SRAM-latency sweep: gmean PCG GFLOP/s",
            columns=["sram_cycles", "gmean_gflops", "relative"],
        )
        baseline = None
        for latency in latencies:
            value = gmean([
                sims[f"{name}/sram{latency}"].gflops()
                for name in matrices
            ])
            if baseline is None:
                baseline = value
            result.add_row(
                sram_cycles=latency, gmean_gflops=value,
                relative=value / baseline,
            )
        slope = (1.0 - result.rows[-1]["relative"]) / (len(latencies) - 1)
        result.extras = {"loss_per_cycle": slope}
        result.notes = (
            f"~{100 * slope:.1f}% gmean throughput lost per extra SRAM "
            "cycle (paper: ~3%, Fig. 26)."
        )
        return result

    return ExperimentPlan(session=session, points=points, reduce=reduce)
