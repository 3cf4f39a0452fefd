"""Table V analog: Azul area estimates.

Component area breakdown at 7nm for the paper's 4096-tile machine
(155 mm^2, SRAM-dominated) and for the scaled-down simulation default.
"""

from __future__ import annotations

from typing import Optional

from repro.config import AzulConfig, paper_config
from repro.experiments.common import default_experiment_config
from repro.experiments.spec import ExperimentPlan, register
from repro.models import area_report
from repro.perf import ExperimentResult


@register("tab5", title="Azul area estimates at 7nm",
          tags=("paper", "table", "analytic"))
def spec(config: Optional[AzulConfig] = None) -> ExperimentPlan:
    """Area breakdowns for the paper config and the simulated config."""

    def reduce(sims) -> ExperimentResult:
        configs = [
            ("paper 64x64", paper_config()),
            ("simulated default", config or default_experiment_config()),
        ]
        result = ExperimentResult(
            experiment="tab5",
            title="Area estimates at 7nm (mm^2)",
            columns=["configuration", "component", "area_mm2"],
        )
        for label, cfg in configs:
            report = area_report(cfg)
            for component, area in report.rows():
                result.add_row(
                    configuration=label, component=component,
                    area_mm2=area,
                )
        result.notes = (
            "Paper Table V: 4096 tiles = 155 mm^2 total (PEs 17.8, "
            "routers 6.6, SRAM 115.2, I/O 15); SRAM takes ~74% of area."
        )
        return result

    return ExperimentPlan(session=None, reduce=reduce)
