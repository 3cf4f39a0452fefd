"""Ablation: partitioner quality presets (Sec. VI-D, last paragraph).

"Azul uses PaToH's quality preset. If mapping time is important, users
could opt for a lower quality mapping by using the default or speed
presets."  This ablation sweeps our partitioner's presets and reports
mapping time, connectivity cut, traffic, and end-to-end throughput.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import AzulConfig
from repro.core.azul_mapping import build_pcg_hypergraph
from repro.experiments.common import ExperimentSession
from repro.experiments.spec import ExperimentPlan, register
from repro.hypergraph import connectivity_cut
from repro.parallel import PlacementSpec, SimPoint
from repro.perf import ExperimentResult


PRESETS = ("speed", "default", "quality")


@register("abl_partitioner", title="Partitioner preset ablation",
          tags=("extension", "ablation", "sim", "sweep"))
def spec(matrix: str = "consph", config: Optional[AzulConfig] = None,
         scale: int = 1) -> ExperimentPlan:
    """Sweep partitioner presets on one matrix."""
    session = ExperimentSession(config, scale=scale)
    points: dict = {}
    for preset in PRESETS:
        points[f"place/{preset}"] = PlacementSpec(matrix, preset=preset)
        points[f"sim/{preset}"] = SimPoint(matrix, preset=preset)

    def reduce(sims) -> ExperimentResult:
        prepared = session.prepare(matrix)
        hypergraph = build_pcg_hypergraph(prepared.matrix, prepared.lower)
        result = ExperimentResult(
            experiment="abl_partitioner",
            title=f"Partitioner preset ablation on {matrix}",
            columns=[
                "preset", "mapping_s", "connectivity_cut",
                "link_activations", "gflops",
            ],
        )
        for preset in PRESETS:
            placement = sims[f"place/{preset}"]
            assignment = np.concatenate([
                placement.a_tile, placement.l_tile, placement.vec_tile,
            ])
            traffic = session.traffic(matrix, placement)
            result.add_row(
                preset=preset,
                mapping_s=placement.placement_seconds,
                connectivity_cut=connectivity_cut(hypergraph, assignment),
                link_activations=traffic.total_link_activations,
                gflops=sims[f"sim/{preset}"].gflops(),
            )
        result.extras = {
            "speed_s": result.rows[0]["mapping_s"],
            "quality_s": result.rows[-1]["mapping_s"],
            "speed_cut": result.rows[0]["connectivity_cut"],
            "quality_cut": result.rows[-1]["connectivity_cut"],
        }
        result.notes = (
            "Higher-effort presets spend more mapping time for lower cut "
            "and traffic — the PaToH preset tradeoff of Sec. VI-D."
        )
        return result

    return ExperimentPlan(session=session, points=points, reduce=reduce)
