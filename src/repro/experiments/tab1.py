"""Table I analog: available parallelism of SpMV vs SpTRSV.

Work divided by critical-path length, for SpMV, for SpTRSV on the
original lower triangle, and for SpTRSV after coloring+permutation.
The paper's shape: SpMV parallelism is orders of magnitude above
SpTRSV's, and permutation widens SpTRSV parallelism by 10-300x.
"""

from __future__ import annotations

from repro.experiments.common import default_matrices
from repro.experiments.spec import ExperimentPlan, register
from repro.graph import parallelism_report
from repro.perf import ExperimentResult
from repro.sparse.suite import get_suite_matrix


@register("tab1", title="Available parallelism of SpMV vs SpTRSV",
          tags=("paper", "table", "analytic"))
def spec(matrices=None, scale: int = 1) -> ExperimentPlan:
    """Compute the Table I rows (uses unpermuted inputs as baseline)."""
    matrices = list(matrices or default_matrices())

    def reduce(sims) -> ExperimentResult:
        result = ExperimentResult(
            experiment="tab1",
            title="Maximum available parallelism (work / critical path)",
            columns=[
                "matrix", "spmv", "sptrsv_original", "sptrsv_permuted",
                "coloring_gain",
            ],
        )
        for name in matrices:
            matrix = get_suite_matrix(name, scale=scale, with_rhs=False)
            report = parallelism_report(name, matrix)
            result.add_row(
                matrix=name,
                spmv=report.spmv,
                sptrsv_original=report.sptrsv_original,
                sptrsv_permuted=report.sptrsv_permuted,
                coloring_gain=report.coloring_gain,
            )
        result.notes = (
            "Paper shape (Table I): SpMV >> SpTRSV parallelism; "
            "permutation multiplies SpTRSV parallelism but it remains "
            "bounded."
        )
        return result

    return ExperimentPlan(session=None, reduce=reduce)
