"""Ablation: partitioner quality presets (Sec. VI-D, last paragraph).

"Azul uses PaToH's quality preset. If mapping time is important, users
could opt for a lower quality mapping by using the default or speed
presets."  This ablation sweeps our partitioner's presets and reports
mapping time, connectivity cut, traffic, and end-to-end throughput.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.comm import make_geometry
from repro.config import AzulConfig
from repro.core.azul_mapping import build_pcg_hypergraph, map_azul
from repro.core.traffic import analyze_traffic
from repro.experiments.common import ExperimentSession
from repro.experiments.spec import ExperimentPlan, register
from repro.hypergraph import PartitionerOptions, connectivity_cut
from repro.perf import ExperimentResult


PRESETS = (
    ("speed", PartitionerOptions.speed),
    ("default", lambda seed=0: PartitionerOptions(seed=seed)),
    ("quality", PartitionerOptions.quality),
)


@register("abl_partitioner", title="Partitioner preset ablation",
          tags=("extension", "ablation", "sim"))
def spec(matrix: str = "consph", config: Optional[AzulConfig] = None,
         scale: int = 1, jobs: Optional[int] = None) -> ExperimentPlan:
    """Sweep partitioner presets on one matrix."""
    session = ExperimentSession(config, scale=scale)

    def reduce(sims) -> ExperimentResult:
        config = session.config
        torus = make_geometry(config)
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
        placements = []
        mapping_times = []
        for label, make_options in PRESETS:
            start = time.perf_counter()
            placements.append(map_azul(
                prepared.matrix, prepared.lower, config.num_tiles,
                options=make_options(seed=0), jobs=jobs,
            ))
            mapping_times.append(time.perf_counter() - start)
        timings = session.simulate_placements(
            matrix, placements, check=False, jobs=jobs,
        )
        for (label, _), placement, mapping_seconds, timing in zip(
                PRESETS, placements, mapping_times, timings):
            assignment = np.concatenate([
                placement.a_tile, placement.l_tile, placement.vec_tile,
            ])
            traffic = analyze_traffic(
                placement, prepared.matrix, prepared.lower, torus
            )
            result.add_row(
                preset=label,
                mapping_s=mapping_seconds,
                connectivity_cut=connectivity_cut(hypergraph, assignment),
                link_activations=traffic.total_link_activations,
                gflops=timing.gflops(),
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

    return ExperimentPlan(session=session, reduce=reduce)


def run(matrix: str = "consph", config: Optional[AzulConfig] = None,
        scale: int = 1, jobs: Optional[int] = None) -> ExperimentResult:
    """Sweep partitioner presets on one matrix."""
    return spec.run(jobs=jobs, matrix=matrix, config=config, scale=scale)


def main():
    print(run())


if __name__ == "__main__":
    main()
