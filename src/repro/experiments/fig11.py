"""Fig. 11 analog: NoC traffic by mapping strategy.

Link activations of one PCG iteration under Round Robin, Block,
SparseP, and Azul mappings, normalized to the worst mapping per matrix.
The paper reports Azul reducing traffic by gmean 66x over Round Robin,
46x over Block, and 34x over SparseP.
"""

from __future__ import annotations

from typing import Optional

from repro.config import AzulConfig
from repro.experiments.common import ExperimentSession, default_matrices
from repro.experiments.spec import ExperimentPlan, register
from repro.parallel import PlacementSpec
from repro.perf import ExperimentResult, gmean


MAPPINGS = ("round_robin", "block", "sparsep", "azul")


@register("fig11", title="NoC traffic by mapping strategy",
          tags=("paper", "figure", "analytic"))
def spec(matrices=None, config: Optional[AzulConfig] = None,
         scale: int = 1) -> ExperimentPlan:
    """Static traffic analysis of one iteration under each mapping."""
    matrices = list(matrices or default_matrices())
    session = ExperimentSession(config, scale=scale)
    points = {
        f"{name}/{mapping}": PlacementSpec(name, mapping)
        for name in matrices for mapping in MAPPINGS
    }

    def reduce(sims) -> ExperimentResult:
        result = ExperimentResult(
            experiment="fig11",
            title="NoC link activations per PCG iteration (normalized)",
            columns=["matrix"] + [f"{m}_norm" for m in MAPPINGS]
            + ["azul_reduction_vs_rr"],
        )
        for name in matrices:
            activations = {}
            for mapping in MAPPINGS:
                report = session.traffic(name, sims[f"{name}/{mapping}"])
                activations[mapping] = report.total_link_activations
            worst = max(activations.values())
            row = {"matrix": name}
            for mapping in MAPPINGS:
                row[f"{mapping}_norm"] = activations[mapping] / worst
            row["azul_reduction_vs_rr"] = (
                activations["round_robin"] / max(activations["azul"], 1)
            )
            result.add_row(**row)
        reduction = gmean(result.column("azul_reduction_vs_rr"))
        result.extras = {"azul_traffic_reduction_vs_rr": reduction}
        result.notes = (
            f"Azul mapping cuts link activations by gmean {reduction:.1f}x "
            "vs Round Robin (paper: 66x at 4096 tiles; smaller machines "
            "shrink the achievable reduction)."
        )
        return result

    return ExperimentPlan(session=session, points=points, reduce=reduce)
