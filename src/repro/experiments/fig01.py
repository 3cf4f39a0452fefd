"""Fig. 1 analog: GPU throughput and utilization on PCG.

The paper's Fig. 1 shows a V100 running Ginkgo PCG achieving at most
0.6% of its 7 TFLOP/s peak across six representative matrices.  Here
the calibrated GPU model reports GFLOP/s and fraction-of-peak for the
same (analog) matrices.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentSession, default_matrices
from repro.experiments.spec import ExperimentPlan, register
from repro.models import GPUModel
from repro.perf import ExperimentResult


@register("fig01", title="GPU PCG throughput and utilization",
          tags=("paper", "figure", "analytic"))
def spec(matrices=None, scale: int = 1) -> ExperimentPlan:
    """Evaluate the GPU model on the representative matrices."""
    matrices = list(matrices or default_matrices())
    session = ExperimentSession(scale=scale)

    def reduce(sims) -> ExperimentResult:
        model = GPUModel()
        result = ExperimentResult(
            experiment="fig01",
            title="GPU (V100 + Ginkgo PCG model): GFLOP/s and % of peak",
            columns=["matrix", "gflops", "pct_of_peak"],
        )
        for name in matrices:
            prepared = session.prepare(name)
            gflops = model.gflops(prepared.matrix, prepared.lower)
            result.add_row(
                matrix=name,
                gflops=gflops,
                pct_of_peak=100.0 * gflops * 1e9 / model.peak_flops,
            )
        worst = max(result.column("pct_of_peak"))
        result.notes = (
            f"Max utilization {worst:.3f}% of peak — the paper observes "
            "<= 0.6% (Fig. 1); small analog matrices are launch-overhead "
            "dominated, pushing utilization lower still."
        )
        return result

    return ExperimentPlan(session=session, reduce=reduce)
