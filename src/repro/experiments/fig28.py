"""Fig. 28 analog: scaling Azul up.

The paper scales from 64x64 to 128x128 and 256x256 tiles, fitting
progressively larger matrices: matrices that fit the small machine
mostly speed up >2x per 4x-tiles step until parallelism-limited; the
largest matrices reach very high absolute throughput on the largest
machine.  Here the machine scales 8x8 -> 16x16 -> 32x32 with matrices
scaled alongside.
"""

from __future__ import annotations

from typing import Optional

from repro.config import AzulConfig
from repro.experiments.common import ExperimentSession, \
    default_experiment_config
from repro.experiments.spec import ExperimentPlan, register
from repro.parallel import SimPoint
from repro.perf import ExperimentResult

#: (matrix, matrix-scale) pairs per machine; mirrors the paper's mix of
#: "fits the small machine" and "needs the big machine" inputs.
DEFAULT_CASES = (
    ("nd12k", 1),        # parallelism-limited: should NOT scale
    ("thermal2", 1),     # high parallelism: should scale
    ("apache2", 1),
    ("af_shell8", 1),    # medium-section matrix
)


@register("fig28", title="Scaling Azul up",
          tags=("paper", "figure", "sim", "sweep"))
def spec(cases=DEFAULT_CASES,
         config: Optional[AzulConfig] = None) -> ExperimentPlan:
    """Throughput across machine sizes (grid side doubling)."""
    config = config or default_experiment_config()
    machines = [
        ("1x", config),
        ("4x tiles", config.scaled(2)),
    ]
    session = ExperimentSession(config)

    points = {
        f"{name}/{label}": SimPoint(
            name, scale=case_scale, config=machine_config
        )
        for name, case_scale in cases
        for label, machine_config in machines
    }

    def reduce(sims) -> ExperimentResult:
        result = ExperimentResult(
            experiment="fig28",
            title="Scaling up: PCG GFLOP/s per machine size",
            columns=["matrix"] + [label for label, _ in machines]
            + ["scaling_4x"],
        )
        for name, _ in cases:
            row = {"matrix": name}
            values = []
            for label, _ in machines:
                row[label] = sims[f"{name}/{label}"].gflops()
                values.append(row[label])
            row["scaling_4x"] = values[-1] / values[0]
            result.add_row(**row)
        result.notes = (
            "Paper shape (Fig. 28): high-parallelism matrices gain >2x "
            "per 4x-tile step; parallelism-limited matrices (nd12k) do "
            "not improve."
        )
        return result

    return ExperimentPlan(session=session, points=points, reduce=reduce)
