"""Fig. 24 analog: power breakdown by component.

Per-matrix power while running PCG steady state, split into SRAM,
compute, NoC, and leakage, from simulation activity factors.  The
paper's shape: SRAM dominates (the machine is an SRAM array with
attached arithmetic), total 210 W average at 4096 tiles.
"""

from __future__ import annotations

from typing import Optional

from repro.config import AzulConfig
from repro.experiments.common import ExperimentSession, default_matrices
from repro.experiments.spec import ExperimentPlan, register
from repro.models import power_report
from repro.parallel import SimPoint
from repro.perf import ExperimentResult


@register("fig24", title="Power breakdown by component",
          tags=("paper", "figure", "sim", "sweep"))
def spec(matrices=None, config: Optional[AzulConfig] = None,
         scale: int = 1) -> ExperimentPlan:
    """Estimate power for each matrix from simulated activity."""
    matrices = list(matrices or default_matrices())
    session = ExperimentSession(config, scale=scale)

    points = {name: SimPoint(name) for name in matrices}

    def reduce(sims) -> ExperimentResult:
        config = session.config
        result = ExperimentResult(
            experiment="fig24",
            title="Azul power by component (watts)",
            columns=["matrix", "sram", "compute", "noc", "leakage",
                     "total"],
        )
        for name in matrices:
            report = power_report(sims[name], config)
            result.add_row(matrix=name, **report.as_dict())
        result.notes = (
            "Paper shape (Fig. 24): SRAM dominates dynamic power; the "
            "simulated machine has 64x fewer tiles, so absolute watts "
            "are proportionally lower than the paper's 210 W average."
        )
        return result

    return ExperimentPlan(session=session, points=points, reduce=reduce)
