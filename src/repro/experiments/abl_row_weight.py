"""Ablation: row-hyperedge overweighting (Sec. IV-C, last paragraph).

The paper assigns row (reduction) hyperedges a larger weight than
column (multicast) hyperedges because splitting a reduction costs a
standalone Add and can delay variable eliminations.  This ablation
sweeps the row/column weight ratio and reports reduction messages,
total traffic, and simulated cycles.
"""

from __future__ import annotations

from typing import Optional

from repro.comm import make_geometry
from repro.config import AzulConfig
from repro.core.azul_mapping import map_azul
from repro.core.traffic import analyze_traffic
from repro.experiments.common import ExperimentSession, mapper_options
from repro.experiments.spec import ExperimentPlan, register
from repro.perf import ExperimentResult


@register("abl_row_weight", title="Row-hyperedge overweighting ablation",
          tags=("extension", "ablation", "sim"))
def spec(matrix: str = "consph", config: Optional[AzulConfig] = None,
         scale: int = 1, weights=(1.0, 2.0, 4.0),
         jobs: Optional[int] = None) -> ExperimentPlan:
    """Sweep the row-edge weight on one matrix."""
    session = ExperimentSession(config, scale=scale)

    def reduce(sims) -> ExperimentResult:
        config = session.config
        torus = make_geometry(config)
        prepared = session.prepare(matrix)
        result = ExperimentResult(
            experiment="abl_row_weight",
            title=f"Row-edge weight ablation on {matrix}",
            columns=[
                "row_weight", "reduction_msgs", "multicast_msgs",
                "link_activations", "cycles",
            ],
        )
        placements = [
            map_azul(
                prepared.matrix, prepared.lower, config.num_tiles,
                row_weight=weight, options=mapper_options("speed"),
            )
            for weight in weights
        ]
        timings = session.simulate_placements(
            matrix, placements, check=False, jobs=jobs,
        )
        for weight, placement, timing in zip(weights, placements,
                                             timings):
            traffic = analyze_traffic(
                placement, prepared.matrix, prepared.lower, torus
            )
            result.add_row(
                row_weight=weight,
                reduction_msgs=sum(
                    k.reduction_messages for k in traffic.kernels
                ),
                multicast_msgs=sum(
                    k.multicast_messages for k in traffic.kernels
                ),
                link_activations=traffic.total_link_activations,
                cycles=timing.total_cycles,
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

    return ExperimentPlan(session=session, reduce=reduce)


def run(matrix: str = "consph", config: Optional[AzulConfig] = None,
        scale: int = 1, weights=(1.0, 2.0, 4.0),
        jobs: Optional[int] = None) -> ExperimentResult:
    """Sweep the row-edge weight on one matrix."""
    return spec.run(jobs=jobs, matrix=matrix, config=config, scale=scale,
                    weights=weights)


def main():
    print(run())


if __name__ == "__main__":
    main()
