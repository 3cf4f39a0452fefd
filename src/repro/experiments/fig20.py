"""Fig. 20 analog: end-to-end PCG speedup over the GPU baseline.

The headline comparison: GPU (analytic model), ALRESCHA (bandwidth-
bound model), Dalorex (simulated: round-robin mapping + in-order
cores), and Azul (simulated: hypergraph mapping + specialized PEs).
Speedups are per-iteration-time ratios; all architectures execute the
same algorithm so iteration counts cancel.
"""

from __future__ import annotations

from typing import Optional

from repro.config import AzulConfig
from repro.experiments.common import ExperimentSession, default_matrices
from repro.experiments.spec import ExperimentPlan, register
from repro.models import AlreschaModel, GPUModel
from repro.parallel import SimPoint
from repro.perf import ExperimentResult, gmean


@register("fig20", title="End-to-end PCG speedup over the GPU",
          tags=("paper", "figure", "sim", "sweep"))
def spec(matrices=None, config: Optional[AzulConfig] = None,
         scale: int = 1) -> ExperimentPlan:
    """End-to-end comparison across the four architectures."""
    matrices = list(matrices or default_matrices())
    session = ExperimentSession(config, scale=scale)

    points = {}
    for name in matrices:
        points[f"{name}/dalorex"] = SimPoint(
            name, mapper="round_robin", pe="dalorex"
        )
        points[f"{name}/azul"] = SimPoint(name, mapper="azul", pe="azul")

    def reduce(sims) -> ExperimentResult:
        config = session.config
        gpu = GPUModel()
        alrescha = AlreschaModel()
        result = ExperimentResult(
            experiment="fig20",
            title="PCG speedup over GPU (matrices sorted by parallelism)",
            columns=[
                "matrix", "alrescha_speedup", "dalorex_speedup",
                "azul_speedup", "azul_gflops",
            ],
        )
        for name in matrices:
            prepared = session.prepare(name)
            gpu_time = gpu.pcg_iteration_time(
                prepared.matrix, prepared.lower
            ).total
            alrescha_time = alrescha.pcg_iteration_time(
                prepared.matrix, prepared.lower
            )
            dalorex_sim = sims[f"{name}/dalorex"]
            azul_sim = sims[f"{name}/azul"]
            dalorex_time = dalorex_sim.total_cycles / config.frequency_hz
            azul_time = azul_sim.total_cycles / config.frequency_hz
            result.add_row(
                matrix=name,
                alrescha_speedup=gpu_time / alrescha_time,
                dalorex_speedup=gpu_time / dalorex_time,
                azul_speedup=gpu_time / azul_time,
                azul_gflops=azul_sim.gflops(),
            )
        result.extras = {
            "alrescha": gmean(result.column("alrescha_speedup")),
            "dalorex": gmean(result.column("dalorex_speedup")),
            "azul": gmean(result.column("azul_speedup")),
        }
        result.notes = (
            "gmean speedup over GPU: "
            f"ALRESCHA {gmean(result.column('alrescha_speedup')):.1f}x, "
            f"Dalorex {gmean(result.column('dalorex_speedup')):.1f}x, "
            f"Azul {gmean(result.column('azul_speedup')):.1f}x "
            "(paper at 4096 tiles: 1.4x / 2.3x / 217x). Reproduced shape: "
            "Azul wins on every matrix and the GPU loses everywhere. "
            "Scale caveat: at ~1e4-nnz matrices the GPU and Dalorex pay "
            "fixed overheads (kernel launches; per-row control) that the "
            "launch-free ALRESCHA model does not, so ALRESCHA's relative "
            "position is inflated versus the paper's 1e7-nnz inputs."
        )
        return result

    return ExperimentPlan(session=session, points=points, reduce=reduce)
