"""Fig. 25 analog: sensitivity to NoC hop latency.

Gmean throughput while sweeping per-hop latency from 1 to 4 cycles.
The paper measures only ~4% gmean loss per extra cycle — Azul's mapping
makes it latency-tolerant.
"""

from __future__ import annotations

from typing import Optional

from repro.config import AzulConfig
from repro.experiments.common import ExperimentSession, \
    default_experiment_config, default_matrices
from repro.experiments.spec import ExperimentPlan, register
from repro.parallel import SimPoint
from repro.perf import ExperimentResult, gmean


@register("fig25", title="Sensitivity to NoC hop latency",
          tags=("paper", "figure", "sim", "sweep"))
def spec(matrices=None, config: Optional[AzulConfig] = None,
         scale: int = 1, latencies=(1, 2, 3, 4)) -> ExperimentPlan:
    """Sweep hop latency and report gmean GFLOP/s."""
    matrices = list(matrices or default_matrices())
    config = config or default_experiment_config()
    session = ExperimentSession(config, scale=scale)

    points = {
        f"{name}/hop{hop}": SimPoint(
            name, config=config.with_(hop_cycles=hop)
        )
        for hop in latencies for name in matrices
    }

    def reduce(sims) -> ExperimentResult:
        result = ExperimentResult(
            experiment="fig25",
            title="Hop-latency sweep: gmean PCG GFLOP/s",
            columns=["hop_cycles", "gmean_gflops", "relative"],
        )
        baseline = None
        for hop in latencies:
            value = gmean([
                sims[f"{name}/hop{hop}"].gflops() for name in matrices
            ])
            if baseline is None:
                baseline = value
            result.add_row(
                hop_cycles=hop, gmean_gflops=value,
                relative=value / baseline,
            )
        slope = (1.0 - result.rows[-1]["relative"]) / (len(latencies) - 1)
        result.extras = {"loss_per_cycle": slope}
        result.notes = (
            f"~{100 * slope:.1f}% gmean throughput lost per extra hop "
            "cycle (paper: ~4%, Fig. 25)."
        )
        return result

    return ExperimentPlan(session=session, points=points, reduce=reduce)
