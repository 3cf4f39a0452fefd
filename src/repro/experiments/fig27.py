"""Fig. 27 analog: fine-grained multithreading ablation.

Gmean throughput of multithreaded vs single-threaded PEs; the paper
measures a 1.5x gain from hiding accumulator-dependence stalls.
"""

from __future__ import annotations

from typing import Optional

from repro.config import AzulConfig
from repro.experiments.common import ExperimentSession, default_matrices
from repro.experiments.spec import ExperimentPlan, register
from repro.parallel import SimPoint
from repro.perf import ExperimentResult, gmean


PES = ("azul", "azul_single")


@register("fig27", title="Fine-grained multithreading ablation",
          tags=("paper", "figure", "sim", "sweep"))
def spec(matrices=None, config: Optional[AzulConfig] = None,
         scale: int = 1) -> ExperimentPlan:
    """Compare multithreaded and single-threaded PE configurations."""
    matrices = list(matrices or default_matrices())
    session = ExperimentSession(config, scale=scale)

    points = {
        f"{name}/{pe}": SimPoint(name, pe=pe)
        for pe in PES for name in matrices
    }

    def reduce(sims) -> ExperimentResult:
        result = ExperimentResult(
            experiment="fig27",
            title="Multithreading ablation: gmean PCG GFLOP/s",
            columns=["pe", "gmean_gflops"],
        )
        values = {}
        for pe in PES:
            values[pe] = gmean([
                sims[f"{name}/{pe}"].gflops() for name in matrices
            ])
            result.add_row(pe="multi" if pe == "azul" else "single",
                           gmean_gflops=values[pe])
        gain = values["azul"] / values["azul_single"]
        result.extras = {"multithreading_gain": gain}
        result.notes = (
            f"Multithreading gain: {gain:.2f}x (paper: 1.5x, Fig. 27)."
        )
        return result

    return ExperimentPlan(session=session, points=points, reduce=reduce)
