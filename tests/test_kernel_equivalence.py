"""Level-scheduled kernel equivalence suite.

The level-scheduled kernels (:func:`repro.sparse.ops.level_sptrsv_lower`
and friends, :func:`repro.sparse.ops.ic0_attempt`) must be drop-in
replacements for the per-row loops in :mod:`tests.oracles.kernels`: same
results to rounding (bit-identical where the summation order is
preserved), same exception classes/messages on malformed factors,
schedules that track in-place value mutation yet never leak across
structural replacement, and PCG runs whose residual histories match a
PCG driven by the per-row loops.
"""

import importlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import (
    NotTriangularError,
    PreconditionerError,
    SingularMatrixError,
)
from repro.precond.ic0 import IncompleteCholesky, ic0
from repro.solvers.base import SolveOptions
from repro.solvers.kernels import KernelCounter
from repro.solvers.pcg import pcg
from repro.sparse import generators as gen
from repro.sparse.convert import coo_to_csr
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse import ops
from repro.sparse.ops import sptrsv_flops
from repro.sparse.schedule import triangular_schedule
from repro.sparse.suite import get_suite_matrix
from tests.oracles.kernels import (
    ic0_attempt_rowwise,
    sptrsv_lower_rowwise,
    sptrsv_upper_rowwise,
)

#: The per-row loops and the level-scheduled kernels, side by side.
REF = SimpleNamespace(
    sptrsv_lower=sptrsv_lower_rowwise, sptrsv_upper=sptrsv_upper_rowwise,
    ic0_attempt=ic0_attempt_rowwise,
)
LVL = SimpleNamespace(
    sptrsv_lower=ops.level_sptrsv_lower, sptrsv_upper=ops.level_sptrsv_upper,
    ic0_attempt=ops.ic0_attempt,
)

MATRIX_KINDS = ["fem", "spd", "grid"]


def _matrix(kind):
    if kind == "fem":
        return gen.random_geometric_fem(
            100, avg_degree=7, dofs_per_node=2, seed=3
        )
    if kind == "spd":
        return gen.random_spd(150, nnz_per_row=6, seed=11)
    return gen.grid_laplacian_2d(14, 14)


def _patch_rowwise(patch):
    """Route IC(0) and the solver's SpTRSVs through the per-row loops."""
    # ``repro.precond`` re-exports the ``ic0`` function under its
    # module's name, so look the modules up by path.
    ic0_module = importlib.import_module("repro.precond.ic0")
    kernels_module = importlib.import_module("repro.solvers.kernels")

    patch.setattr(ic0_module, "ic0_attempt", ic0_attempt_rowwise)
    patch.setattr(kernels_module, "level_sptrsv_lower", sptrsv_lower_rowwise)
    patch.setattr(kernels_module, "level_sptrsv_upper", sptrsv_upper_rowwise)


def _copy(matrix):
    return CSRMatrix(
        matrix.indptr.copy(), matrix.indices.copy(), matrix.data.copy(),
        matrix.shape,
    )


def _bidiagonal(n=40, seed=0):
    """Rows with at most one off-diagonal entry: order-preserved case."""
    rng = np.random.default_rng(seed)
    rows = [0]
    cols = [0]
    vals = [2.0]
    for i in range(1, n):
        rows += [i, i]
        cols += [i - 1, i]
        vals += [float(rng.standard_normal()), 2.0 + float(rng.random())]
    return coo_to_csr(COOMatrix(rows, cols, vals, (n, n)))


# ----------------------------------------------------------------------
# Numeric parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", MATRIX_KINDS)
def test_sptrsv_parity(kind):
    matrix = _matrix(kind)
    lower = matrix.lower_triangle()
    upper = lower.transpose()
    rng = np.random.default_rng(7)
    b = rng.standard_normal(lower.n_rows)
    for unit in (False, True):
        x_ref = REF.sptrsv_lower(lower, b, unit_diagonal=unit)
        x_lvl = LVL.sptrsv_lower(lower, b, unit_diagonal=unit)
        np.testing.assert_allclose(x_lvl, x_ref, rtol=1e-12, atol=0)
        y_ref = REF.sptrsv_upper(upper, b, unit_diagonal=unit)
        y_lvl = LVL.sptrsv_upper(upper, b, unit_diagonal=unit)
        np.testing.assert_allclose(y_lvl, y_ref, rtol=1e-12, atol=0)


def test_sptrsv_bit_identical_when_order_preserved():
    """Rows with one off-diagonal entry admit no reassociation: the
    engines must agree to the bit, not just to rounding."""
    lower = _bidiagonal()
    upper = lower.transpose()
    b = np.linspace(-3.0, 5.0, lower.n_rows)
    assert np.array_equal(
        LVL.sptrsv_lower(lower, b), REF.sptrsv_lower(lower, b)
    )
    assert np.array_equal(
        LVL.sptrsv_upper(upper, b), REF.sptrsv_upper(upper, b)
    )


@pytest.mark.parametrize("kind", MATRIX_KINDS)
def test_ic0_parity(kind):
    lower = _matrix(kind).lower_triangle()
    d_ref = REF.ic0_attempt(lower, 0.0)
    d_lvl = LVL.ic0_attempt(lower, 0.0)
    assert d_ref is not None and d_lvl is not None
    np.testing.assert_allclose(d_lvl, d_ref, rtol=1e-12, atol=0)
    # Shifted attempts agree too (the retry path factors shifted data).
    np.testing.assert_allclose(
        LVL.ic0_attempt(lower, 1e-3), REF.ic0_attempt(lower, 1e-3),
        rtol=1e-12, atol=0,
    )


def test_ic0_shift_retry_equivalence(monkeypatch):
    """An indefinite 2x2 breaks down identically under both
    factorizations and factors identically once the shift is large
    enough."""
    matrix = coo_to_csr(COOMatrix(
        [0, 1, 1], [0, 0, 1], [1.0, 2.0, 1.0], (2, 2)
    ))
    with pytest.raises(PreconditionerError):
        ic0(matrix)
    f_lvl = ic0(matrix, max_shift_attempts=12)
    with monkeypatch.context() as patch:
        _patch_rowwise(patch)
        with pytest.raises(PreconditionerError):
            ic0(matrix)
        f_ref = ic0(matrix, max_shift_attempts=12)
    np.testing.assert_array_equal(f_lvl.data, f_ref.data)


# ----------------------------------------------------------------------
# Error equivalence
# ----------------------------------------------------------------------
def _raises_same(fn_ref, fn_lvl, exc_type):
    with pytest.raises(exc_type) as ref_info:
        fn_ref()
    with pytest.raises(exc_type) as lvl_info:
        fn_lvl()
    assert str(lvl_info.value) == str(ref_info.value)


def test_not_triangular_errors_match():
    matrix = _matrix("spd")  # full symmetric matrix: not triangular
    b = np.ones(matrix.n_rows)
    _raises_same(
        lambda: REF.sptrsv_lower(matrix, b),
        lambda: LVL.sptrsv_lower(matrix, b),
        NotTriangularError,
    )
    _raises_same(
        lambda: REF.sptrsv_upper(matrix, b),
        lambda: LVL.sptrsv_upper(matrix, b),
        NotTriangularError,
    )


def test_zero_pivot_errors_match():
    lower = _matrix("grid").lower_triangle()
    broken = _copy(lower)
    row = 9
    broken.data[broken.indptr[row + 1] - 1] = 0.0  # diagonal is last
    b = np.ones(lower.n_rows)
    _raises_same(
        lambda: REF.sptrsv_lower(broken, b),
        lambda: LVL.sptrsv_lower(broken, b),
        SingularMatrixError,
    )
    upper = broken.transpose()
    _raises_same(
        lambda: REF.sptrsv_upper(upper, b),
        lambda: LVL.sptrsv_upper(upper, b),
        SingularMatrixError,
    )


def test_missing_diagonal_errors_match():
    # Strictly lower triangular: no diagonal stored at all.
    strict = coo_to_csr(COOMatrix(
        [1, 2, 3], [0, 1, 0], [1.0, 2.0, 3.0], (4, 4)
    ))
    b = np.ones(4)
    _raises_same(
        lambda: REF.sptrsv_lower(strict, b),
        lambda: LVL.sptrsv_lower(strict, b),
        SingularMatrixError,
    )
    # ...but a unit-diagonal solve accepts exactly that structure.
    np.testing.assert_array_equal(
        LVL.sptrsv_lower(strict, b, unit_diagonal=True),
        REF.sptrsv_lower(strict, b, unit_diagonal=True),
    )
    # IC(0) reports the same structure as a breakdown, not an error.
    assert REF.ic0_attempt(strict, 0.0) is None
    assert LVL.ic0_attempt(strict, 0.0) is None


def test_first_singular_row_matches_reference_order():
    """A missing diagonal and a zero pivot are both found when solving:
    whichever row the row loop reaches first is the one reported."""
    # Rows 1 and 3 store no diagonal; rows 0 and 2 have a zero pivot
    # after the data is zeroed below.
    lower = coo_to_csr(COOMatrix(
        [0, 1, 2, 2, 3], [0, 0, 1, 2, 2], [1.0, 1.0, 1.0, 1.0, 1.0],
        (4, 4),
    ))
    b = np.ones(4)
    for zero_row in (0, 2):
        broken = _copy(lower)
        broken.data[broken.indptr[zero_row + 1] - 1] = 0.0
        _raises_same(
            lambda: REF.sptrsv_lower(broken, b),
            lambda: LVL.sptrsv_lower(broken, b),
            SingularMatrixError,
        )
        upper = broken.transpose()
        _raises_same(
            lambda: REF.sptrsv_upper(upper, b),
            lambda: LVL.sptrsv_upper(upper, b),
            SingularMatrixError,
        )


def test_levels_need_no_stored_diagonal():
    """A row without a stored diagonal still has a dependence level:
    the schedule builds, and its levels are the unit-diagonal ones."""
    lower = _matrix("grid").lower_triangle()
    dense = lower.to_dense()
    dense[5, 5] = 0.0
    rows, cols = np.nonzero(dense)
    gap = coo_to_csr(COOMatrix(rows, cols, dense[rows, cols], dense.shape))
    schedule = triangular_schedule(gap)
    assert not schedule.diag_complete
    np.testing.assert_array_equal(
        schedule.levels, triangular_schedule(lower).levels
    )
    np.testing.assert_array_equal(
        schedule.levels, triangular_schedule(gap, unit_diagonal=True).levels
    )


# ----------------------------------------------------------------------
# Schedule caching
# ----------------------------------------------------------------------
def test_schedule_cached_per_structure():
    lower = _matrix("grid").lower_triangle()
    first = triangular_schedule(lower)
    assert triangular_schedule(lower) is first
    # A different (is_lower, unit_diagonal) key builds its own entry.
    assert triangular_schedule(lower, unit_diagonal=True) is not first
    # A structurally identical but distinct matrix gets a new schedule.
    assert triangular_schedule(_copy(lower)) is not first


def test_schedule_tracks_in_place_values():
    """The schedule is structure-only: mutating ``data`` in place must
    be picked up without a rebuild, because solvers and the IC(0)
    shift-retry loop update factor values under a fixed pattern."""
    lower = _matrix("grid").lower_triangle()
    b = np.ones(lower.n_rows)
    x1 = LVL.sptrsv_lower(lower, b)
    schedule = triangular_schedule(lower)
    lower.data *= 2.0
    assert triangular_schedule(lower) is schedule  # no rebuild
    x2 = LVL.sptrsv_lower(lower, b)
    np.testing.assert_allclose(2.0 * x2, x1, rtol=1e-12)


# ----------------------------------------------------------------------
# FLOP accounting
# ----------------------------------------------------------------------
def test_counter_forwards_unit_diagonal():
    """`KernelCounter` must forward ``unit_diagonal`` to the kernel and
    to the FLOP model (the flag used to be dropped)."""
    strict = coo_to_csr(COOMatrix(
        [1, 2, 3], [0, 1, 2], [0.5, -1.0, 2.0], (4, 4)
    ))
    counter = KernelCounter()
    b = np.ones(4)
    x = counter.sptrsv_lower(strict, b, unit_diagonal=True)
    np.testing.assert_array_equal(
        x, REF.sptrsv_lower(strict, b, unit_diagonal=True)
    )
    assert counter.flops["sptrsv"] == 2 * strict.nnz
    assert counter.calls["sptrsv"] == 1


def test_sptrsv_flops_unit_diagonal():
    """FLOPs of a unit-diagonal solve count only the strict triangle,
    whether or not the unit diagonal is stored explicitly."""
    lower = _matrix("grid").lower_triangle()
    strict_nnz = lower.nnz - lower.n_rows
    # Non-unit: one FMAC per off-diagonal + one diagonal multiply/row.
    assert sptrsv_flops(lower) == 2 * strict_nnz + lower.n_rows
    # Unit with the (ignored) diagonal stored: same strict count.
    assert sptrsv_flops(lower, unit_diagonal=True) == 2 * strict_nnz
    # Unit without a stored diagonal: nnz IS the strict count; the old
    # ``nnz - n`` formula would undercount by n here.
    no_diag = coo_to_csr(COOMatrix(
        [1, 2, 3], [0, 1, 2], [0.5, -1.0, 2.0], (4, 4)
    ))
    assert sptrsv_flops(no_diag, unit_diagonal=True) == 2 * no_diag.nnz


# ----------------------------------------------------------------------
# End-to-end PCG equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["consph", "thermal2"])
def test_pcg_history_matches_reference(name, monkeypatch):
    matrix, b = get_suite_matrix(name)
    options = SolveOptions(max_iterations=40, tol=1e-9,
                           record_history=True)

    with monkeypatch.context() as patch:
        _patch_rowwise(patch)
        ref = pcg(matrix, b, IncompleteCholesky(matrix), options)
    lvl = pcg(matrix, b, IncompleteCholesky(matrix), options)

    assert lvl.iterations == ref.iterations
    assert lvl.converged == ref.converged
    assert lvl.flops == ref.flops
    np.testing.assert_allclose(
        np.asarray(lvl.history.residuals),
        np.asarray(ref.history.residuals),
        rtol=1e-6,
    )
    np.testing.assert_allclose(lvl.x, ref.x, rtol=1e-6, atol=1e-12)
