"""Extension: energy efficiency (GFLOP/s per watt).

Combines the throughput results (Fig. 20) with the power model
(Fig. 24) into an efficiency comparison: an SRAM-array accelerator's
advantage in performance-per-watt is even larger than its raw speedup,
since it eliminates off-chip DRAM energy entirely.
"""

from __future__ import annotations

from typing import Optional

from repro.config import AzulConfig
from repro.experiments.common import ExperimentSession, default_matrices
from repro.experiments.spec import ExperimentPlan, register
from repro.models import GPUModel, power_report
from repro.parallel import SimPoint
from repro.perf import ExperimentResult, gmean

#: V100 PCIe board power (the GPU baseline's TDP).
GPU_TDP_W = 250.0


@register("eff_study", title="Energy efficiency: GFLOP/s per watt",
          tags=("extension", "study", "sim", "sweep"))
def spec(matrices=None, config: Optional[AzulConfig] = None,
         scale: int = 1) -> ExperimentPlan:
    """GFLOP/s per watt: simulated Azul vs the GPU model at TDP."""
    matrices = list(matrices or default_matrices())
    session = ExperimentSession(config, scale=scale)

    points = {name: SimPoint(name) for name in matrices}

    def reduce(sims) -> ExperimentResult:
        config = session.config
        gpu = GPUModel()
        result = ExperimentResult(
            experiment="eff_study",
            title="Energy efficiency: GFLOP/s per watt",
            columns=[
                "matrix", "azul_gflops_per_w", "gpu_gflops_per_w",
                "efficiency_gain",
            ],
        )
        for name in matrices:
            prepared = session.prepare(name)
            sim = sims[name]
            azul_watts = power_report(sim, config).total
            azul_efficiency = sim.gflops() / azul_watts
            gpu_efficiency = (
                gpu.gflops(prepared.matrix, prepared.lower) / GPU_TDP_W
            )
            result.add_row(
                matrix=name,
                azul_gflops_per_w=azul_efficiency,
                gpu_gflops_per_w=gpu_efficiency,
                efficiency_gain=azul_efficiency / gpu_efficiency,
            )
        gain = gmean(result.column("efficiency_gain"))
        result.extras = {"gmean_efficiency_gain": gain}
        result.notes = (
            f"Azul is gmean {gain:.0f}x more energy-efficient than the "
            "GPU baseline: the raw speedup compounds with a much lower "
            "power envelope (no DRAM, small SRAMs, short wires)."
        )
        return result

    return ExperimentPlan(session=session, points=points, reduce=reduce)
