"""Micro-benchmarks of the library's computational kernels.

Not tied to a single paper artifact: these time the building blocks
every experiment uses (SpMV, the level-scheduled SpTRSV and its level
schedule, factorization, coloring, partitioning, simulation), so
regressions in the substrate are visible independently of the
experiment harness.
"""

import numpy as np
import pytest

from repro.comm import TorusGeometry
from repro.config import AzulConfig
from repro.core import build_pcg_hypergraph, map_block
from repro.dataflow import build_spmv_program
from repro.graph import color_and_permute
from repro.hypergraph import PartitionerOptions, partition
from repro.precond import ic0
from repro.sim import AZUL_PE, KernelSimulator
from repro.solvers import pcg
from repro.sparse import CSRMatrix, generators as gen
from repro.sparse.ops import level_sptrsv_lower
from repro.sparse.schedule import triangular_schedule


@pytest.fixture(scope="module")
def matrix():
    return gen.random_geometric_fem(
        300, avg_degree=7, dofs_per_node=2, seed=21
    )


@pytest.fixture(scope="module")
def lower(matrix):
    return ic0(matrix)


def test_spmv_reference(benchmark, matrix, rng=np.random.default_rng(0)):
    x = rng.standard_normal(matrix.n_cols)
    y = benchmark(matrix.spmv, x)
    assert y.shape == (matrix.n_rows,)


def test_sptrsv_reference(benchmark, lower):
    """The level-scheduled forward solve over the factor's cached
    schedule (the solvers' and verification's SpTRSV)."""
    b = np.ones(lower.n_rows)
    x = benchmark(level_sptrsv_lower, lower, b)
    assert np.all(np.isfinite(x))


def test_ic0_factorization(benchmark, matrix):
    factor = benchmark(ic0, matrix)
    assert factor.nnz == matrix.lower_triangle().nnz


def test_coloring_and_permutation(benchmark, matrix):
    permuted, _, _ = benchmark(color_and_permute, matrix)
    assert permuted.nnz == matrix.nnz


def test_level_schedule(benchmark, lower):
    """Building a factor's level schedule: each round gets a fresh copy
    of the structure, so no round reads the schedule cached on it."""
    def fresh_structure():
        copy = CSRMatrix(lower.indptr.copy(), lower.indices.copy(),
                         lower.data, lower.shape)
        return (copy,), {}

    schedule = benchmark.pedantic(triangular_schedule,
                                  setup=fresh_structure, rounds=5)
    assert schedule.n_levels > 0


def test_pcg_solve(benchmark, matrix):
    b = gen.make_rhs(matrix, seed=2)
    result = benchmark.pedantic(
        lambda: pcg(matrix, b), rounds=1, iterations=1
    )
    assert result.converged


def test_hypergraph_partition(benchmark, matrix, lower):
    hypergraph = build_pcg_hypergraph(matrix, lower, q=0)
    assignment = benchmark.pedantic(
        lambda: partition(hypergraph, 16, PartitionerOptions.speed(seed=0)),
        rounds=1, iterations=1,
    )
    assert assignment.max() < 16


def test_kernel_simulation(benchmark, matrix, lower):
    config = AzulConfig(mesh_rows=4, mesh_cols=4)
    torus = TorusGeometry(4, 4)
    placement = map_block(matrix, lower, 16)
    program = build_spmv_program(
        matrix, placement.a_tile, placement.vec_tile, torus
    )
    x = np.ones(matrix.n_rows)
    result = benchmark.pedantic(
        lambda: KernelSimulator(program, torus, config, AZUL_PE).run(x=x),
        rounds=1, iterations=1,
    )
    assert np.allclose(result.output, matrix.spmv(x))


# ----------------------------------------------------------------------
# Simulator benchmarks (tracked in BENCH_sim.json)
# ----------------------------------------------------------------------
# ``benchmarks/emit_bench.py --suite sim`` runs the ``sim_engine``
# marker set with ``--benchmark-json`` and
# ``benchmarks/check_regression.py`` gates the recorded timings.


@pytest.fixture(scope="module")
def spmv_sim_setup(matrix, lower):
    config = AzulConfig(mesh_rows=4, mesh_cols=4)
    torus = TorusGeometry(4, 4)
    placement = map_block(matrix, lower, 16)
    program = build_spmv_program(
        matrix, placement.a_tile, placement.vec_tile, torus
    )
    x = np.ones(matrix.n_rows)
    return program, torus, config, x


@pytest.fixture(scope="module")
def sptrsv_sim_setup(matrix, lower):
    from repro.dataflow import build_sptrsv_program

    config = AzulConfig(mesh_rows=4, mesh_cols=4)
    torus = TorusGeometry(4, 4)
    placement = map_block(matrix, lower, 16)
    program = build_sptrsv_program(
        lower, placement.l_tile, placement.vec_tile, torus
    )
    b = np.ones(lower.n_rows)
    return program, torus, config, b


@pytest.mark.sim_engine
def test_spmv_sim(benchmark, matrix, spmv_sim_setup):
    """Simulation of the 300-node FEM SpMV (the hot path)."""
    program, torus, config, x = spmv_sim_setup
    result = benchmark.pedantic(
        lambda: KernelSimulator(program, torus, config, AZUL_PE).run(x=x),
        rounds=5, iterations=1,
    )
    assert np.allclose(result.output, matrix.spmv(x))


@pytest.mark.sim_engine
def test_sptrsv_sim(benchmark, sptrsv_sim_setup):
    """Simulation of the dependence-limited forward SpTRSV."""
    program, torus, config, b = sptrsv_sim_setup
    result = benchmark.pedantic(
        lambda: KernelSimulator(program, torus, config, AZUL_PE).run(b=b),
        rounds=5, iterations=1,
    )
    assert np.all(np.isfinite(result.output))


@pytest.mark.sim_engine
def test_obs_disabled_overhead(benchmark, spmv_sim_setup):
    """Disabled-observability overhead guard (<5% of a kernel sim).

    The facade's no-op paths are what the pipeline pays when ``--trace``
    / ``--metrics`` are not given.  One pipeline run makes a few dozen
    obs calls; this times 1,000 of them (counters, spans, timers —
    ~30x more than any real run) and asserts the total stays under 5%
    of one SpMV kernel simulation, so the disabled facade can never
    become a measurable tax.
    """
    import time

    import repro.obs as obs

    program, torus, config, x = spmv_sim_setup
    obs.disable()

    def disabled_calls(n=1_000):
        for _ in range(n):
            obs.counter("guard.counter")
            with obs.span("guard.span"):
                pass
            with obs.timer("guard.timer"):
                pass

    benchmark.pedantic(disabled_calls, rounds=5, iterations=1)

    start = time.perf_counter()
    disabled_calls()
    obs_seconds = time.perf_counter() - start
    start = time.perf_counter()
    KernelSimulator(program, torus, config, AZUL_PE).run(x=x)
    sim_seconds = time.perf_counter() - start
    assert obs_seconds < 0.05 * sim_seconds, (
        f"1k disabled obs calls took {obs_seconds * 1e3:.2f} ms vs "
        f"{sim_seconds * 1e3:.2f} ms for one kernel simulation"
    )
    assert obs.snapshot()["counters"] == {}
