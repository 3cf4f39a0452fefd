"""Table II analog: iterative solvers and their kernel requirements.

Demonstrates the paper's coverage claim: SpMV and SpTRSV suffice for
the widely used solver/preconditioner combinations.
"""

from __future__ import annotations

from repro.experiments.spec import ExperimentPlan, register
from repro.perf import ExperimentResult
from repro.solvers import solver_table


@register("tab2", title="Iterative solvers and required kernels",
          tags=("paper", "table", "analytic"))
def spec() -> ExperimentPlan:
    """Render the solver/preconditioner/kernels table."""

    def reduce(sims) -> ExperimentResult:
        result = ExperimentResult(
            experiment="tab2",
            title="Iterative solvers and required sparse kernels",
            columns=["algorithm", "preconditioner", "kernels"],
        )
        for solver in solver_table():
            result.add_row(
                algorithm=solver.algorithm,
                preconditioner=solver.preconditioner,
                kernels=" + ".join(solver.kernels),
            )
        result.notes = (
            "Every listed solver reduces to SpMV and/or SpTRSV — the two "
            "kernels Azul accelerates (paper Table II)."
        )
        return result

    return ExperimentPlan(session=None, reduce=reduce)
