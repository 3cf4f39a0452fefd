"""Ablation: 2D torus vs 2D mesh NoC.

The paper builds on a 2D torus (Table III); a mesh is the obvious
cheaper alternative (shorter links, no wraparound wiring) at the cost
of longer average routes and half the bisection.  This ablation runs
the same mapped PCG on both topologies.
"""

from __future__ import annotations

from typing import Optional

from repro.config import AzulConfig
from repro.experiments.common import ExperimentSession, default_matrices
from repro.experiments.spec import ExperimentPlan, register
from repro.parallel import SimPoint
from repro.perf import ExperimentResult, gmean


TOPOLOGIES = ("torus", "mesh")


@register("abl_topology", title="NoC topology ablation: torus vs mesh",
          tags=("extension", "ablation", "sim", "sweep"))
def spec(matrices=None, config: Optional[AzulConfig] = None,
         scale: int = 1) -> ExperimentPlan:
    """Same placement, torus vs mesh timing."""
    matrices = list(matrices or default_matrices())
    session = ExperimentSession(config, scale=scale)
    config = session.config

    points = {
        f"{name}/{topology}": SimPoint(
            name, config=config.with_(topology=topology),
        )
        for name in matrices for topology in TOPOLOGIES
    }

    def reduce(sims) -> ExperimentResult:
        result = ExperimentResult(
            experiment="abl_topology",
            title="NoC topology ablation: torus vs mesh",
            columns=[
                "matrix", "torus_cycles", "mesh_cycles",
                "torus_advantage", "torus_links", "mesh_links",
            ],
        )
        for name in matrices:
            runs = {
                topology: sims[f"{name}/{topology}"]
                for topology in TOPOLOGIES
            }
            result.add_row(
                matrix=name,
                torus_cycles=runs["torus"].total_cycles,
                mesh_cycles=runs["mesh"].total_cycles,
                torus_advantage=(
                    runs["mesh"].total_cycles / runs["torus"].total_cycles
                ),
                torus_links=runs["torus"].link_activations(),
                mesh_links=runs["mesh"].link_activations(),
            )
        result.extras = {
            "gmean_torus_advantage": gmean(
                result.column("torus_advantage")
            ),
        }
        result.notes = (
            "The torus is gmean "
            f"{result.extras['gmean_torus_advantage']:.2f}x faster: "
            "wraparound halves average route length, and Azul's mapping "
            "leaves little slack to absorb the mesh's longer paths."
        )
        return result

    return ExperimentPlan(session=session, points=points, reduce=reduce)
