"""Sparse kernels: SpMV, SpTRSV, and IC(0) (Sec. II-A).

The triangular solve has one form here:
:func:`level_sptrsv_lower` / :func:`level_sptrsv_upper` execute it
level set by level set (wavefront) over a cached
:class:`~repro.sparse.schedule.TriangularSchedule`.  Each dependence
level is one batched numpy gather/segment-reduce, so every solve of a
factor re-uses the schedule computed once for it;
:func:`level_sptrsv_transposed` solves with ``L^T`` over a schedule
cached on ``L``.  Solvers and preconditioners reach them through
:class:`repro.solvers.kernels.KernelCounter`, and the simulator's
functional check (:func:`repro.sim.machine.verify_iteration`) calls
them directly.

:func:`ic0_attempt` factors one IC(0) attempt the same level-batched
way via :class:`~repro.sparse.schedule.IC0Schedule`; preconditioners
reach it through :func:`repro.precond.ic0.ic0`.

The row-by-row substitutions and IC(0) they are checked against live
in ``tests/oracles/kernels.py``.  Row sums in the level-scheduled
kernels accumulate in a different association order than a per-row
``np.dot``, so results agree to rounding (bit-identical for rows with
at most one off-diagonal entry); error classes, messages, and
offending-row choices match the row loops.
``tests/test_kernel_equivalence.py`` enforces both.

FLOP-counting helpers use the paper's convention: one fused
multiply-accumulate is two FLOPs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import MatrixFormatError, SingularMatrixError
from repro.sparse.csr import CSRMatrix, transpose_with_mapping
from repro.sparse.schedule import (
    cached_on,
    ic0_schedule,
    triangular_schedule,
)


def spmv(matrix: CSRMatrix, x) -> np.ndarray:
    """Sparse matrix-vector product ``y = A @ x``."""
    return matrix.spmv(x)


def _check_trsv_args(matrix: CSRMatrix, b: np.ndarray) -> None:
    if matrix.shape[0] != matrix.shape[1]:
        raise MatrixFormatError("triangular solve requires a square matrix")
    if len(b) != matrix.n_rows:
        raise MatrixFormatError(
            f"rhs length {len(b)} != n {matrix.n_rows}"
        )


def level_sptrsv_lower(lower: CSRMatrix, b,
                       unit_diagonal: bool = False) -> np.ndarray:
    """Solve ``L x = b`` for lower-triangular ``L``, level by level.

    ``lower`` is a lower-triangular CSR matrix with sorted columns.
    With ``unit_diagonal`` the diagonal is taken to be all ones and
    any stored diagonal entries are ignored; otherwise every row must
    store a nonzero diagonal.
    """
    b = np.asarray(b, dtype=np.float64)
    _check_trsv_args(lower, b)
    schedule = triangular_schedule(
        lower, is_lower=True, unit_diagonal=unit_diagonal
    )
    return schedule.execute(lower.data, b)


def level_sptrsv_upper(upper: CSRMatrix, b,
                       unit_diagonal: bool = False) -> np.ndarray:
    """Solve ``U x = b`` for upper-triangular ``U``, level by level."""
    b = np.asarray(b, dtype=np.float64)
    _check_trsv_args(upper, b)
    schedule = triangular_schedule(
        upper, is_lower=False, unit_diagonal=unit_diagonal
    )
    return schedule.execute(upper.data, b)


def level_sptrsv_transposed(lower: CSRMatrix, b) -> np.ndarray:
    """Solve ``L^T x = b`` for lower-triangular ``L``, level by level.

    The same solve as ``level_sptrsv_upper(lower.transpose(), b)``,
    but the transpose is cached on ``lower`` (and its schedule on the
    transpose), so each factor's is built once; the values are read
    from ``lower.data`` on every call.
    """
    b = np.asarray(b, dtype=np.float64)
    _check_trsv_args(lower, b)
    upper, source = cached_on(lower, ("transpose",),
                              lambda: transpose_with_mapping(lower))
    schedule = triangular_schedule(upper, is_lower=False)
    return schedule.execute(lower.data[source], b)


def ic0_attempt(lower: CSRMatrix,
                diag_shift: float = 0.0) -> Optional[np.ndarray]:
    """One IC(0) attempt on ``tril(A)``; factor data, or None on breakdown.

    Factors ``A + diag_shift * diag(A)`` with the standard up-looking
    update, batched by dependence level:

        L[i,j] = (A[i,j] - sum_k L[i,k] L[j,k]) / L[j,j]   for j < i
        L[i,i] = sqrt(A[i,i] - sum_k L[i,k]^2)

    A structurally missing diagonal is a breakdown (None), not an error.
    """
    try:
        schedule = ic0_schedule(lower)
    except SingularMatrixError:
        return None
    return schedule.attempt(lower, diag_shift)


# ----------------------------------------------------------------------
# FLOP accounting (paper convention: FMAC = 2 FLOPs)
# ----------------------------------------------------------------------
def spmv_flops(matrix: CSRMatrix) -> int:
    """Useful FLOPs of one SpMV: one FMAC per stored nonzero."""
    return 2 * matrix.nnz


def sptrsv_flops(lower: CSRMatrix, unit_diagonal: bool = False) -> int:
    """Useful FLOPs of one SpTRSV.

    Each strictly-off-diagonal nonzero contributes an FMAC (2 FLOPs)
    and each row contributes one multiply by the stored reciprocal
    diagonal (the paper stores ``1/d`` to avoid divisions on the
    critical path).  Unit-diagonal factors skip the diagonal multiply —
    and may store their unit diagonal explicitly or not, so the strict
    off-diagonal count is taken from the actual structure rather than
    assuming ``nnz - n``.
    """
    n = lower.n_rows
    if unit_diagonal:
        rows = np.repeat(np.arange(n, dtype=np.int64), lower.row_nnz())
        strictly_off = int(np.count_nonzero(lower.indices != rows))
        return 2 * strictly_off
    off_diagonal = lower.nnz - n
    return 2 * off_diagonal + n


def dot_flops(n: int) -> int:
    """FLOPs of a length-``n`` dot product (n multiplies + n-1 adds ~ 2n)."""
    return 2 * n


def axpy_flops(n: int) -> int:
    """FLOPs of ``y += alpha * x`` (one FMAC per element)."""
    return 2 * n
