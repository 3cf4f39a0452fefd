"""Fig. 2 analog: the headline summary bars.

Gmean PCG throughput of (1) Azul, (2) Azul PEs with Dalorex's
round-robin mapping, (3) Dalorex, and (4) the GPU — showing that both
ingredients (mapping and PE) are necessary (Sec. I).
"""

from __future__ import annotations

from typing import Optional

from repro.config import AzulConfig
from repro.experiments.common import ExperimentSession, default_matrices
from repro.experiments.spec import ExperimentPlan, register
from repro.models import GPUModel
from repro.parallel import SimPoint
from repro.perf import ExperimentResult, gmean


@register("fig02", title="Headline gmean PCG throughput",
          tags=("paper", "figure", "sim", "sweep"))
def spec(matrices=None, config: Optional[AzulConfig] = None,
         scale: int = 1) -> ExperimentPlan:
    """Gmean GFLOP/s of the four headline configurations."""
    matrices = list(matrices or default_matrices())
    session = ExperimentSession(config, scale=scale)
    config = session.config

    points = {}
    for name in matrices:
        points[f"{name}/dalorex"] = SimPoint(
            name, mapper="round_robin", pe="dalorex"
        )
        points[f"{name}/azul_rr"] = SimPoint(
            name, mapper="round_robin", pe="azul"
        )
        points[f"{name}/azul"] = SimPoint(name, mapper="azul", pe="azul")

    def reduce(sims) -> ExperimentResult:
        gpu = GPUModel()
        gpu_gflops = []
        for name in matrices:
            prepared = session.prepare(name)
            gpu_gflops.append(gpu.gflops(prepared.matrix, prepared.lower))
        dalorex_gflops = [
            sims[f"{name}/dalorex"].gflops() for name in matrices
        ]
        azul_rr_gflops = [
            sims[f"{name}/azul_rr"].gflops() for name in matrices
        ]
        azul_gflops = [sims[f"{name}/azul"].gflops() for name in matrices]

        result = ExperimentResult(
            experiment="fig02",
            title="Headline gmean PCG throughput (GFLOP/s)",
            columns=["configuration", "gmean_gflops", "vs_gpu"],
        )
        reference = gmean(gpu_gflops)
        for label, values in (
            ("Azul", azul_gflops),
            ("Azul PEs + Dalorex mapping", azul_rr_gflops),
            ("Dalorex", dalorex_gflops),
            ("GPU (V100 model)", gpu_gflops),
        ):
            value = gmean(values)
            result.add_row(
                configuration=label,
                gmean_gflops=value,
                vs_gpu=value / reference,
            )
        result.notes = (
            "Paper shape (Fig. 2): Azul >> Azul-PEs-with-RR-mapping >> "
            "Dalorex > GPU; both the mapping and the PE are required. "
            f"Machine peak here: {config.peak_flops / 1e9:.0f} GFLOP/s."
        )
        result.extras = {
            "azul": gmean(azul_gflops),
            "azul_rr": gmean(azul_rr_gflops),
            "dalorex": gmean(dalorex_gflops),
            "gpu": gmean(gpu_gflops),
        }
        return result

    return ExperimentPlan(session=session, points=points, reduce=reduce)
