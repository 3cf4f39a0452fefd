"""Direct-vs-iterative study (paper Sec. II background claims).

Quantifies, per suite matrix, the fill-in of a *direct* sparse Cholesky
factorization against the zero-fill IC(0) factor, and the one-time
factorization FLOPs against a full PCG solve's FLOPs — the reason the
paper (and this reproduction) focuses on iterative solvers.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentSession, default_matrices
from repro.experiments.spec import ExperimentPlan, register
from repro.perf import ExperimentResult
from repro.solvers import SolveOptions, pcg
from repro.sparse.cholesky import direct_vs_iterative_flops, \
    symbolic_cholesky


@register("tab_fill", title="Direct-solver fill-in vs iterative solve",
          tags=("extension", "table", "analytic"))
def spec(matrices=None, scale: int = 1) -> ExperimentPlan:
    """Fill ratios and FLOP comparison for the representative set."""
    matrices = list(matrices or default_matrices())
    session = ExperimentSession(scale=scale)

    def reduce(sims) -> ExperimentResult:
        result = ExperimentResult(
            experiment="tab_fill",
            title="Direct-solver fill-in vs iterative solve (Sec. II)",
            columns=[
                "matrix", "nnz_trilA", "nnz_chol", "fill_ratio",
                "pcg_iters", "direct_MFLOP", "pcg_MFLOP", "flop_ratio",
            ],
        )
        for name in matrices:
            prepared = session.prepare(name)
            factor = symbolic_cholesky(prepared.matrix)
            solve = pcg(
                prepared.matrix, prepared.b,
                options=SolveOptions(tol=1e-8, max_iterations=2000),
            )
            flops = direct_vs_iterative_flops(
                prepared.matrix, prepared.lower, solve.iterations
            )
            result.add_row(
                matrix=name,
                nnz_trilA=prepared.matrix.lower_triangle().nnz,
                nnz_chol=factor.nnz,
                fill_ratio=factor.fill_ratio(prepared.matrix),
                pcg_iters=solve.iterations,
                direct_MFLOP=flops["direct_factorization"] / 1e6,
                pcg_MFLOP=flops["pcg_total"] / 1e6,
                flop_ratio=(
                    flops["direct_factorization"]
                    / max(flops["pcg_total"], 1)
                ),
            )
        worst_fill = max(result.column("fill_ratio"))
        result.extras = {"max_fill_ratio": worst_fill}
        result.notes = (
            f"Cholesky factors are up to {worst_fill:.1f}x denser than "
            "tril(A) here (the paper cites up to 1000x at SuiteSparse "
            "scale); fill and factorization FLOPs grow superlinearly, "
            "which is why the paper targets iterative solvers."
        )
        return result

    return ExperimentPlan(session=session, reduce=reduce)
