"""FLOP-accounted kernel wrappers used by the solvers.

The performance analysis (Figs. 3, 21, 22) needs FLOPs broken down by
kernel class (SpMV, SpTRSV, vector ops).  Solvers route all their linear
algebra through a :class:`KernelCounter`, which both executes the
operation and accumulates the accounting.

Triangular solves run the level-scheduled kernels of
:mod:`repro.sparse.ops` over cached triangular schedules.  Solvers
hand their counter to :meth:`Preconditioner.apply
<repro.precond.base.Preconditioner.apply>`, so a factor-based
preconditioner's two SpTRSVs are executed and counted here too (its
diagonal scalings are not counted).  The sparse kernels carry
``solve.kernel.*`` observability timers and counters here — one span
per kernel invocation; the inner level loops stay uninstrumented so
the hot path is untouched.
"""

from __future__ import annotations

import numpy as np

import repro.obs as obs
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import (
    axpy_flops,
    dot_flops,
    level_sptrsv_lower,
    level_sptrsv_upper,
    spmv_flops,
    sptrsv_flops,
)


class KernelCounter:
    """Executes kernels while accumulating per-class FLOP counts.

    Counts follow the paper's convention (FMAC = 2 FLOPs) and are split
    into the three classes of Fig. 3: ``spmv``, ``sptrsv``, ``vector``.
    Call counts per kernel are tracked as well.
    """

    def __init__(self):
        self.flops = {"spmv": 0, "sptrsv": 0, "vector": 0}
        self.calls = {"spmv": 0, "sptrsv": 0, "vector": 0}

    # -- sparse kernels -------------------------------------------------
    def spmv(self, matrix: CSRMatrix, x) -> np.ndarray:
        """Counted ``y = A @ x``."""
        self.flops["spmv"] += spmv_flops(matrix)
        self.calls["spmv"] += 1
        obs.counter("solve.kernel.spmv.calls")
        with obs.timer("solve.kernel.spmv", n=matrix.n_rows):
            return matrix.spmv(x)

    def sptrsv_lower(self, lower: CSRMatrix, b,
                     unit_diagonal: bool = False) -> np.ndarray:
        """Counted forward triangular solve."""
        self.flops["sptrsv"] += sptrsv_flops(lower, unit_diagonal=unit_diagonal)
        self.calls["sptrsv"] += 1
        obs.counter("solve.kernel.sptrsv.calls")
        with obs.timer("solve.kernel.sptrsv", n=lower.n_rows,
                       direction="lower"):
            return level_sptrsv_lower(lower, b, unit_diagonal=unit_diagonal)

    def sptrsv_upper(self, upper: CSRMatrix, b,
                     unit_diagonal: bool = False) -> np.ndarray:
        """Counted backward triangular solve."""
        self.flops["sptrsv"] += sptrsv_flops(upper, unit_diagonal=unit_diagonal)
        self.calls["sptrsv"] += 1
        obs.counter("solve.kernel.sptrsv.calls")
        with obs.timer("solve.kernel.sptrsv", n=upper.n_rows,
                       direction="upper"):
            return level_sptrsv_upper(upper, b, unit_diagonal=unit_diagonal)

    # -- vector kernels -------------------------------------------------
    def dot(self, a, b) -> float:
        """Counted dot product."""
        self.flops["vector"] += dot_flops(len(a))
        self.calls["vector"] += 1
        return float(np.dot(a, b))

    def axpy(self, alpha: float, x, y) -> np.ndarray:
        """Counted ``y + alpha * x`` (returns a new vector)."""
        self.flops["vector"] += axpy_flops(len(x))
        self.calls["vector"] += 1
        return y + alpha * x

    def scale_add(self, x, beta: float, y) -> np.ndarray:
        """Counted ``x + beta * y`` (PCG's search-direction update)."""
        self.flops["vector"] += axpy_flops(len(x))
        self.calls["vector"] += 1
        return x + beta * y

    def norm(self, x) -> float:
        """Counted 2-norm."""
        self.flops["vector"] += dot_flops(len(x))
        self.calls["vector"] += 1
        return float(np.linalg.norm(x))

    def snapshot(self) -> dict:
        """A copy of the per-class FLOP totals."""
        return dict(self.flops)
