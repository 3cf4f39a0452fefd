"""Fig. 3 analog: GPU PCG runtime breakdown by kernel.

The paper shows SpTRSV and SpMV dominating Ginkgo PCG runtime on a
V100, with SpTRSV the largest share on most matrices.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentSession, default_matrices
from repro.experiments.spec import ExperimentPlan, register
from repro.models import GPUModel
from repro.perf import ExperimentResult


@register("fig03", title="GPU PCG runtime breakdown by kernel",
          tags=("paper", "figure", "analytic"))
def spec(matrices=None, scale: int = 1) -> ExperimentPlan:
    """Per-kernel GPU runtime fractions for the representative set."""
    matrices = list(matrices or default_matrices())
    session = ExperimentSession(scale=scale)

    def reduce(sims) -> ExperimentResult:
        model = GPUModel()
        result = ExperimentResult(
            experiment="fig03",
            title="GPU PCG runtime breakdown by kernel (normalized)",
            columns=["matrix", "sptrsv", "spmv", "vector"],
        )
        for name in matrices:
            prepared = session.prepare(name)
            fractions = model.pcg_iteration_time(
                prepared.matrix, prepared.lower
            ).fractions()
            result.add_row(
                matrix=name,
                sptrsv=fractions["sptrsv"],
                spmv=fractions["spmv"],
                vector=fractions["vector"],
            )
        result.notes = (
            "Paper shape: SpMV + SpTRSV dominate, SpTRSV largest on most "
            "matrices (Fig. 3)."
        )
        return result

    return ExperimentPlan(session=session, reduce=reduce)
