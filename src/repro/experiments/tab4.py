"""Table IV analog: the benchmark-suite inventory.

Reports, for every suite matrix, its dimension, nonzero count, density,
and A/b SRAM footprints — the columns of the paper's Table IV — plus
which machine section it belongs to.
"""

from __future__ import annotations

from repro.experiments.spec import ExperimentPlan, register
from repro.perf import ExperimentResult
from repro.sparse.suite import suite_inventory


@register("tab4", title="Benchmark-suite inventory",
          tags=("paper", "table", "analytic"))
def spec(section: str = "all", scale: int = 1) -> ExperimentPlan:
    """Build the suite inventory table."""

    def reduce(sims) -> ExperimentResult:
        result = ExperimentResult(
            experiment="tab4",
            title="Benchmark matrices (synthetic analogs of paper Table IV)",
            columns=[
                "matrix", "category", "section", "n", "nnz", "nnz_per_row",
                "A_KB", "b_KB",
            ],
        )
        for row in suite_inventory(section, scale=scale):
            result.add_row(
                matrix=row["name"],
                category=row["category"],
                section=row["section"],
                n=row["n"],
                nnz=row["nnz"],
                nnz_per_row=row["nnz_per_row"],
                A_KB=row["a_bytes"] / 1024,
                b_KB=row["b_bytes"] / 1024,
            )
        result.notes = (
            "Paper matrices are SuiteSparse SPD inputs (3.7M-329M nnz); "
            "these synthetic analogs preserve nnz/row, pattern "
            "correlation, and SpTRSV parallelism class at "
            "simulation-tractable sizes."
        )
        return result

    return ExperimentPlan(session=None, reduce=reduce)
