"""Ablation: row-hyperedge overweighting (Sec. IV-C, last paragraph).

The paper assigns row (reduction) hyperedges a larger weight than
column (multicast) hyperedges because splitting a reduction costs a
standalone Add and can delay variable eliminations.  This ablation
sweeps the row/column weight ratio and reports reduction messages,
total traffic, and simulated cycles.
"""

from __future__ import annotations

from typing import Optional

from repro.config import AzulConfig
from repro.experiments.common import ExperimentSession
from repro.experiments.spec import ExperimentPlan, register
from repro.parallel import PlacementSpec, SimPoint
from repro.perf import ExperimentResult


@register("abl_row_weight", title="Row-hyperedge overweighting ablation",
          tags=("extension", "ablation", "sim", "sweep"))
def spec(matrix: str = "consph", config: Optional[AzulConfig] = None,
         scale: int = 1, weights=(1.0, 2.0, 4.0)) -> ExperimentPlan:
    """Sweep the row-edge weight on one matrix."""
    session = ExperimentSession(config, scale=scale)
    points: dict = {}
    for weight in weights:
        points[f"place/{weight}"] = PlacementSpec(
            matrix, preset="speed", row_weight=weight,
        )
        points[f"sim/{weight}"] = SimPoint(
            matrix, preset="speed", row_weight=weight,
        )

    def reduce(sims) -> ExperimentResult:
        result = ExperimentResult(
            experiment="abl_row_weight",
            title=f"Row-edge weight ablation on {matrix}",
            columns=[
                "row_weight", "reduction_msgs", "multicast_msgs",
                "link_activations", "cycles",
            ],
        )
        for weight in weights:
            traffic = session.traffic(matrix, sims[f"place/{weight}"])
            result.add_row(
                row_weight=weight,
                reduction_msgs=sum(
                    k.reduction_messages for k in traffic.kernels
                ),
                multicast_msgs=sum(
                    k.multicast_messages for k in traffic.kernels
                ),
                link_activations=traffic.total_link_activations,
                cycles=sims[f"sim/{weight}"].total_cycles,
            )
        baseline = result.rows[0]["reduction_msgs"]
        weighted = min(row["reduction_msgs"] for row in result.rows[1:])
        result.extras = {
            "reduction_msg_change": weighted / max(baseline, 1),
        }
        result.notes = (
            "Raising the row weight trades multicast traffic for fewer "
            "split reductions (Sec. IV-C's rationale); the paper uses a "
            "fixed overweight."
        )
        return result

    return ExperimentPlan(session=session, points=points, reduce=reduce)
