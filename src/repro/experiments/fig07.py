"""Fig. 7 analog: GPU speedup from graph coloring.

The paper shows coloring+permutation speeds up GPU PCG by at least 2x
(often much more) by collapsing SpTRSV dependence levels.
"""

from __future__ import annotations

from repro.experiments.common import default_matrices
from repro.experiments.spec import ExperimentPlan, register
from repro.graph import color_and_permute
from repro.models import GPUModel
from repro.perf import ExperimentResult
from repro.precond import ic0
from repro.sparse.suite import get_suite_matrix


@register("fig07", title="GPU speedup from graph coloring",
          tags=("paper", "figure", "analytic"))
def spec(matrices=None, scale: int = 1) -> ExperimentPlan:
    """GPU iteration time: original vs colored+permuted inputs."""
    matrices = list(matrices or default_matrices())

    def reduce(sims) -> ExperimentResult:
        model = GPUModel()
        result = ExperimentResult(
            experiment="fig07",
            title="GPU runtime, original vs colored+permuted (normalized)",
            columns=["matrix", "original", "permuted", "speedup"],
        )
        for name in matrices:
            matrix = get_suite_matrix(name, scale=scale, with_rhs=False)
            original_time = model.pcg_iteration_time(
                matrix, matrix.lower_triangle()
            ).total
            permuted, _, _ = color_and_permute(matrix)
            permuted_lower = ic0(permuted)
            permuted_time = model.pcg_iteration_time(
                permuted, permuted_lower
            ).total
            result.add_row(
                matrix=name,
                original=1.0,
                permuted=permuted_time / original_time,
                speedup=original_time / permuted_time,
            )
        result.notes = (
            "Paper shape (Fig. 7): permutation speeds up the GPU >= 2x "
            "on every matrix."
        )
        return result

    return ExperimentPlan(session=None, reduce=reduce)
