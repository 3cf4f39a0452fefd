"""Benchmarks for the motivation artifacts: Fig. 1, Fig. 3, Table I,
Fig. 7, Table II, and Table IV."""

from benchmarks.conftest import run_once
from repro.experiments import run_experiment


def test_fig01_gpu_utilization(benchmark):
    result = run_once(benchmark, run_experiment, "fig01")
    assert len(result.rows) == 6
    # Paper claim: GPU achieves under 1% of peak on every matrix.
    assert all(row["pct_of_peak"] < 1.0 for row in result.rows)


def test_fig03_gpu_kernel_breakdown(benchmark):
    result = run_once(benchmark, run_experiment, "fig03")
    for row in result.rows:
        # SpTRSV dominates SpMV on the GPU (Fig. 3's shape).
        assert row["sptrsv"] > row["spmv"]
        total = row["sptrsv"] + row["spmv"] + row["vector"]
        assert abs(total - 1.0) < 1e-9


def test_tab1_parallelism(benchmark):
    result = run_once(benchmark, run_experiment, "tab1")
    for row in result.rows:
        # SpMV parallelism dwarfs SpTRSV's; coloring widens SpTRSV's.
        assert row["spmv"] > row["sptrsv_permuted"]
        assert row["sptrsv_permuted"] >= row["sptrsv_original"]


def test_fig07_coloring_speedup(benchmark):
    result = run_once(benchmark, run_experiment, "fig07")
    # Coloring speeds up the GPU on every matrix; >=2x on most.
    speedups = result.column("speedup")
    assert all(s > 1.0 for s in speedups)
    assert sum(s >= 2.0 for s in speedups) >= len(speedups) // 2


def test_tab2_solver_registry(benchmark):
    result = run_once(benchmark, run_experiment, "tab2")
    assert len(result.rows) == 9
    kernels = set()
    for row in result.rows:
        kernels.update(row["kernels"].split(" + "))
    assert kernels == {"SpMV", "SpTRSV"}


def test_tab4_suite_inventory(benchmark):
    result = run_once(benchmark, run_experiment, "tab4", section="small")
    assert len(result.rows) == 20
    # Matrices must be ordered by increasing nnz-per-row diversity and
    # cover low (grid) and high (banded/mesh) densities.
    densities = result.column("nnz_per_row")
    assert max(densities) > 4 * min(densities)
