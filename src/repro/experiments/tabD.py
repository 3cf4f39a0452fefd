"""Sec. VI-D analog: data-mapping preprocessing cost.

Wall-clock time to map each matrix with each strategy.  The paper:
Azul's mapping averages 6.16 minutes per matrix (PaToH quality preset)
vs 0.25 (Block), 1.9 (Round Robin, dominated by reduction-tree
construction), and 0.6 (SparseP) — amortized over hours-long
simulations.
"""

from __future__ import annotations

from typing import Optional

from repro.config import AzulConfig
from repro.experiments.common import ExperimentSession, default_matrices
from repro.experiments.spec import ExperimentPlan, register
from repro.parallel import PlacementSpec
from repro.perf import ExperimentResult


MAPPINGS = ("block", "sparsep", "round_robin", "azul")


@register("tabD", title="Data-mapping preprocessing cost",
          tags=("paper", "table", "analytic"))
def spec(matrices=None, config: Optional[AzulConfig] = None,
         scale: int = 1) -> ExperimentPlan:
    """Report mapping wall-clock seconds per matrix and strategy.

    Each placement records its mapping time when it is computed, and
    the cache stores that time with it: a warm run reports the time
    recorded when the placement was computed.
    """
    matrices = list(matrices or default_matrices())
    session = ExperimentSession(config, scale=scale)
    points = {
        f"{name}/{mapping}": PlacementSpec(name, mapping)
        for name in matrices for mapping in MAPPINGS
    }

    def reduce(sims) -> ExperimentResult:
        result = ExperimentResult(
            experiment="tabD",
            title="Mapping preprocessing cost (seconds)",
            columns=["matrix"] + [f"{m}_s" for m in MAPPINGS],
        )
        for name in matrices:
            row = {"matrix": name}
            for mapping in MAPPINGS:
                row[f"{mapping}_s"] = (
                    sims[f"{name}/{mapping}"].placement_seconds
                )
            result.add_row(**row)
        result.notes = (
            "Paper shape (Sec. VI-D): Azul's hypergraph mapping costs "
            "far more than position-based mappings but is amortized "
            "across millions of solver timesteps sharing one sparsity "
            "pattern."
        )
        return result

    return ExperimentPlan(session=session, points=points, reduce=reduce)
