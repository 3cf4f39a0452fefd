"""Ablation: PE thread-context count (Sec. V-A).

Fig. 27 compares single- vs multi-threaded PEs; this ablation sweeps
the number of replicated operation-generator contexts to show where the
latency-hiding benefit saturates (the hardware cost of more contexts is
more replicated state).
"""

from __future__ import annotations

from typing import Optional

from repro.config import AzulConfig
from repro.experiments.common import ExperimentSession, default_matrices
from repro.experiments.spec import ExperimentPlan, register
from repro.parallel import SimPoint
from repro.perf import ExperimentResult, gmean
from repro.sim.pe import PEModel


@register("abl_threads", title="PE thread-context sweep",
          tags=("extension", "ablation", "sim", "sweep"))
def spec(matrices=None, config: Optional[AzulConfig] = None,
         scale: int = 1, context_counts=(1, 2, 4, 8, 16),
         jobs: Optional[int] = None) -> ExperimentPlan:
    """Sweep thread contexts; gmean GFLOP/s over the matrix set."""
    matrices = list(matrices or default_matrices())
    session = ExperimentSession(config, scale=scale)

    models = {
        contexts: PEModel(
            name=f"azul_{contexts}t",
            issue_cycles=1,
            multithreaded=contexts > 1,
            thread_contexts=contexts,
        )
        for contexts in context_counts
    }
    points = {
        f"{contexts}t/{name}": SimPoint(name, pe=pe, check=False)
        for contexts, pe in models.items() for name in matrices
    }

    def reduce(sims) -> ExperimentResult:
        result = ExperimentResult(
            experiment="abl_threads",
            title="PE thread-context sweep: gmean PCG GFLOP/s",
            columns=["contexts", "gmean_gflops", "vs_single"],
        )
        baseline = None
        for contexts in context_counts:
            value = gmean([
                sims[f"{contexts}t/{name}"].gflops() for name in matrices
            ])
            if baseline is None:
                baseline = value
            result.add_row(
                contexts=contexts, gmean_gflops=value,
                vs_single=value / baseline,
            )
        result.extras = {"max_gain": max(result.column("vs_single"))}
        result.notes = (
            "Gains saturate once contexts cover the FMAC pipeline "
            "latency (the paper's 1.5x multithreading benefit, Fig. 27)."
        )
        return result

    return ExperimentPlan(session=session, points=points, reduce=reduce)


def run(matrices=None, config: Optional[AzulConfig] = None,
        scale: int = 1, context_counts=(1, 2, 4, 8, 16),
        jobs: Optional[int] = None) -> ExperimentResult:
    """Sweep thread contexts; gmean GFLOP/s over the matrix set."""
    return spec.run(jobs=jobs, matrices=matrices, config=config,
                    scale=scale, context_counts=context_counts)


def main():
    print(run())


if __name__ == "__main__":
    main()
