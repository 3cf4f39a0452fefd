"""Benchmarks for the solver numeric kernels (Sec. II-A hot path).

The ``solver_kernels``-marked benchmarks track the level-scheduled
kernels in ``BENCH_solver.json`` (see ``benchmarks/emit_bench.py
--suite solver``): SpTRSV and IC(0) on the largest solver-suite matrix
(BenElechi1 at suite scale 4), plus the end-to-end PCG solve — IC(0)
setup included — that every accuracy experiment repeats per matrix.

The triangular/IC(0) schedules are memoized on the factor, so a
solve's schedule cost is paid once per factor; the SpTRSV and IC(0)
benchmarks measure the warm steady state (the per-iteration cost
inside PCG), while the PCG benchmark includes the one-time schedule
builds.
"""

import pytest

from repro.solvers.base import SolveOptions
from repro.sparse.ops import ic0_attempt, level_sptrsv_lower, level_sptrsv_upper
from repro.sparse.suite import get_suite_matrix

#: Largest solver-suite benchmark matrix: the 2D-mesh analog scaled 4x
#: (n=4480, ~56k nonzeros in the lower triangle, ~22 dependence levels).
SOLVER_MATRIX = "BenElechi1"
SOLVER_SCALE = 4
#: Fixed PCG budget (``tol=0`` never converges) so every run does
#: identical numeric work.
PCG_ITERATIONS = 30


@pytest.fixture(scope="module")
def system():
    return get_suite_matrix(SOLVER_MATRIX, scale=SOLVER_SCALE)


@pytest.fixture(scope="module")
def factors(system):
    """IC(0) factor pair of the benchmark matrix (built once)."""
    from repro.precond.ic0 import ic0

    matrix, b = system
    lower = ic0(matrix)
    return lower, lower.transpose(), b


@pytest.fixture(scope="module")
def raw_lower(system):
    """The unfactored lower triangle IC(0) attempts consume."""
    matrix, _ = system
    return matrix.lower_triangle()


def _sptrsv_roundtrip(lower, upper, b):
    return level_sptrsv_upper(upper, level_sptrsv_lower(lower, b))


@pytest.mark.solver_kernels
def test_sptrsv_level(benchmark, factors):
    lower, upper, b = factors
    x = benchmark.pedantic(
        lambda: _sptrsv_roundtrip(lower, upper, b),
        rounds=10, iterations=1, warmup_rounds=1,
    )
    assert len(x) == lower.n_rows


@pytest.mark.solver_kernels
def test_ic0_level(benchmark, raw_lower):
    ic0_attempt(raw_lower, 0.0)  # warm the cached schedule
    data = benchmark.pedantic(
        lambda: ic0_attempt(raw_lower, 0.0),
        rounds=5, iterations=1,
    )
    assert data is not None


def _pcg_end_to_end(system):
    from repro.precond.ic0 import IncompleteCholesky
    from repro.solvers.pcg import pcg

    matrix, b = system
    preconditioner = IncompleteCholesky(matrix)
    options = SolveOptions(max_iterations=PCG_ITERATIONS, tol=0.0)
    return pcg(matrix, b, preconditioner, options)


@pytest.mark.solver_kernels
def test_pcg_level(benchmark, system):
    result = benchmark.pedantic(
        lambda: _pcg_end_to_end(system),
        rounds=3, iterations=1,
    )
    assert result.iterations == PCG_ITERATIONS
