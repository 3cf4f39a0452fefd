"""Fig. 23 analog: end-to-end throughput by mapping strategy.

Full PCG on simulated Azul hardware (real PEs this time, unlike
Fig. 10's idealized ones) under Round Robin, Block, SparseP, and Azul
mappings.  The paper: Azul outperforms Round Robin by gmean 10.2x,
Block by 13.5x, SparseP by 25.2x.
"""

from __future__ import annotations

from typing import Optional

from repro.config import AzulConfig
from repro.experiments.common import ExperimentSession, default_matrices
from repro.experiments.spec import ExperimentPlan, register
from repro.parallel import SimPoint
from repro.perf import ExperimentResult, gmean


MAPPINGS = ("round_robin", "block", "sparsep", "azul")


@register("fig23", title="End-to-end throughput by mapping strategy",
          tags=("paper", "figure", "sim", "sweep"))
def spec(matrices=None, config: Optional[AzulConfig] = None,
         scale: int = 1) -> ExperimentPlan:
    """Throughput of each mapping on the real-PE simulator."""
    matrices = list(matrices or default_matrices())
    session = ExperimentSession(config, scale=scale)

    points = {
        f"{name}/{mapping}": SimPoint(name, mapper=mapping, pe="azul")
        for name in matrices for mapping in MAPPINGS
    }

    def reduce(sims) -> ExperimentResult:
        result = ExperimentResult(
            experiment="fig23",
            title="PCG GFLOP/s by data mapping (Azul PEs)",
            columns=["matrix"] + list(MAPPINGS),
        )
        for name in matrices:
            row = {"matrix": name}
            for mapping in MAPPINGS:
                row[mapping] = sims[f"{name}/{mapping}"].gflops()
            result.add_row(**row)
        summary = []
        for mapping in MAPPINGS[:-1]:
            gain = gmean([
                row["azul"] / row[mapping] for row in result.rows
            ])
            result.extras[f"azul_vs_{mapping}"] = gain
            summary.append(f"{gain:.1f}x vs {mapping}")
        result.notes = (
            "Azul mapping gmean gains: " + ", ".join(summary)
            + " (paper: 10.2x / 13.5x / 25.2x at 4096 tiles)."
        )
        return result

    return ExperimentPlan(session=session, points=points, reduce=reduce)
