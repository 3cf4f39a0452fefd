"""Ablation: number of temporal balance quantiles (Sec. IV-C).

The paper uses q = 5 quantiles for time balancing (Fig. 17).  This
ablation sweeps q on a dependence-limited SpTRSV, reporting kernel
cycles: q = 0 is the nonzero-balancing baseline, larger q approximates
per-level balancing at growing partitioning cost.
"""

from __future__ import annotations

from typing import Optional

from repro.comm import make_geometry
from repro.config import AzulConfig
from repro.dataflow import build_sptrsv_program
from repro.experiments.common import ExperimentSession
from repro.experiments.spec import ExperimentPlan, register
from repro.parallel import PlacementSpec
from repro.perf import ExperimentResult
from repro.sim.engine import KernelSimulator
from repro.sim.pe import AZUL_PE


@register("abl_quantiles", title="Temporal balance quantile sweep",
          tags=("extension", "ablation", "sim"))
def spec(matrix: str = "consph", config: Optional[AzulConfig] = None,
         scale: int = 1, quantile_counts=(0, 2, 5, 10)) -> ExperimentPlan:
    """Sweep the quantile count on one matrix's forward SpTRSV."""
    session = ExperimentSession(config, scale=scale)
    points = {
        f"q{q}": PlacementSpec(matrix, preset="speed", q=q)
        for q in quantile_counts
    }

    def reduce(sims) -> ExperimentResult:
        config = session.config
        torus = make_geometry(config)
        prepared = session.prepare(matrix)
        result = ExperimentResult(
            experiment="abl_quantiles",
            title=f"Time-balancing quantile sweep on {matrix} (fwd SpTRSV)",
            columns=["q", "sptrsv_cycles", "speedup_vs_q0", "mapping_s"],
        )
        baseline_cycles = None
        for q in quantile_counts:
            placement = sims[f"q{q}"]
            program = build_sptrsv_program(
                prepared.lower, placement.l_tile, placement.vec_tile,
                torus,
            )
            kernel = KernelSimulator(program, torus, config, AZUL_PE).run(
                b=prepared.b
            )
            if baseline_cycles is None:
                baseline_cycles = kernel.cycles
            result.add_row(
                q=q,
                sptrsv_cycles=kernel.cycles,
                speedup_vs_q0=baseline_cycles / max(kernel.cycles, 1),
                mapping_s=placement.placement_seconds,
            )
        best = max(result.column("speedup_vs_q0"))
        result.extras = {"best_speedup": best}
        result.notes = (
            f"Best time-balancing speedup {best:.2f}x over nonzero-only "
            "balancing (the paper reports 3.5x at 4096 tiles with q=5)."
        )
        return result

    return ExperimentPlan(session=session, points=points, reduce=reduce)
