"""Ablation: multicast trees vs point-to-point messages (Fig. 18).

The paper motivates communication trees with two costs of naive
point-to-point fans: redundant traffic over shared links, and
serialization at the sending PE ("a single PE may be responsible for
sending a value to hundreds of tiles").  This ablation simulates the
same mapped PCG iteration with merged multicast trees (Fig. 18 right)
and with one unicast message per destination (Fig. 18 left).
"""

from __future__ import annotations

from typing import Optional

from repro.config import AzulConfig
from repro.experiments.common import ExperimentSession, default_matrices
from repro.experiments.spec import ExperimentPlan, register
from repro.parallel import SimPoint
from repro.perf import ExperimentResult, gmean


@register("abl_trees", title="Multicast trees vs point-to-point",
          tags=("extension", "ablation", "sim", "sweep"))
def spec(matrices=None, config: Optional[AzulConfig] = None,
         scale: int = 1) -> ExperimentPlan:
    """Compare tree and unicast distribution on the mapped machine."""
    matrices = list(matrices or default_matrices())
    session = ExperimentSession(config, scale=scale)
    points = {}
    for name in matrices:
        points[f"{name}/tree"] = SimPoint(name)
        points[f"{name}/unicast"] = SimPoint(name, multicast="unicast")

    def reduce(sims) -> ExperimentResult:
        result = ExperimentResult(
            experiment="abl_trees",
            title="Multicast trees vs point-to-point messages",
            columns=[
                "matrix", "tree_cycles", "unicast_cycles", "speedup",
                "tree_links", "unicast_links", "traffic_saving",
            ],
        )
        for name in matrices:
            tree_run = sims[f"{name}/tree"]
            unicast_run = sims[f"{name}/unicast"]
            result.add_row(
                matrix=name,
                tree_cycles=tree_run.total_cycles,
                unicast_cycles=unicast_run.total_cycles,
                speedup=unicast_run.total_cycles / tree_run.total_cycles,
                tree_links=tree_run.link_activations(),
                unicast_links=unicast_run.link_activations(),
                traffic_saving=(
                    unicast_run.link_activations()
                    / max(tree_run.link_activations(), 1)
                ),
            )
        result.extras = {
            "gmean_speedup": gmean(result.column("speedup")),
            "gmean_traffic_saving": gmean(
                result.column("traffic_saving")
            ),
        }
        result.notes = (
            f"Trees save {result.extras['gmean_traffic_saving']:.2f}x "
            f"link traffic and {result.extras['gmean_speedup']:.2f}x "
            "cycles vs point-to-point fans (Sec. IV-D's two claimed "
            "benefits)."
        )
        return result

    return ExperimentPlan(session=session, points=points, reduce=reduce)
