"""Fig. 10 analog: mapping strategies under idealized PEs.

To isolate the network as the bottleneck, the paper runs PCG on
hardware with idealized PEs (tasks run as fast as dependences allow)
under Round Robin, Block, and Azul mappings.  Position-based mappings
leave the machine NoC-bound; Azul's mapping restores throughput.
"""

from __future__ import annotations

from typing import Optional

from repro.config import AzulConfig
from repro.experiments.common import ExperimentSession, default_matrices
from repro.experiments.spec import ExperimentPlan, register
from repro.parallel import SimPoint
from repro.perf import ExperimentResult, gmean


MAPPINGS = ("round_robin", "block", "azul")


@register("fig10", title="Mapping strategies under idealized PEs",
          tags=("paper", "figure", "sim", "sweep"))
def spec(matrices=None, config: Optional[AzulConfig] = None,
         scale: int = 1) -> ExperimentPlan:
    """Idealized-PE throughput under the three mappings."""
    matrices = list(matrices or default_matrices())
    session = ExperimentSession(config, scale=scale)

    points = {
        f"{name}/{mapping}": SimPoint(name, mapper=mapping, pe="ideal")
        for name in matrices for mapping in MAPPINGS
    }

    def reduce(sims) -> ExperimentResult:
        result = ExperimentResult(
            experiment="fig10",
            title="PCG GFLOP/s with idealized PEs, by data mapping",
            columns=["matrix"] + list(MAPPINGS),
        )
        for name in matrices:
            row = {"matrix": name}
            for mapping in MAPPINGS:
                row[mapping] = sims[f"{name}/{mapping}"].gflops()
            result.add_row(**row)
        gains = [
            row["azul"] / row["round_robin"] for row in result.rows
        ]
        result.notes = (
            f"Azul mapping vs Round Robin under ideal PEs: gmean "
            f"{gmean(gains):.1f}x (paper: 10.2x at 4096 tiles, Fig. 10)."
        )
        result.extras = {"azul_vs_round_robin": gmean(gains)}
        return result

    return ExperimentPlan(session=session, points=points, reduce=reduce)
