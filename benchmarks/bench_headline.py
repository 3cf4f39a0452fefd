"""Benchmarks for the headline comparisons: Fig. 2, Fig. 9, Fig. 20."""

from benchmarks.conftest import run_once
from repro.experiments import run_experiment


def test_fig09_dalorex_underperforms(benchmark, subset):
    result = run_once(benchmark, run_experiment, "fig09", matrices=subset)
    # Dalorex leaves nearly all of the all-SRAM machine's peak unused
    # (paper: ~1%; small matrices allow somewhat more).
    assert all(row["fraction_of_peak"] < 0.25 for row in result.rows)


def test_fig20_architecture_ordering(benchmark, subset):
    result = run_once(benchmark, run_experiment, "fig20", matrices=subset)
    # The paper's ordering: Azul > Dalorex on every matrix, and Azul
    # beats the GPU outright.
    for row in result.rows:
        assert row["azul_speedup"] > row["dalorex_speedup"]
        assert row["azul_speedup"] > 1.0
    assert result.extras["azul"] > result.extras["dalorex"]
    assert result.extras["azul"] > result.extras["alrescha"]


def test_fig02_headline_bars(benchmark, subset):
    result = run_once(benchmark, run_experiment, "fig02", matrices=subset)
    bars = {row["configuration"]: row["gmean_gflops"] for row in result.rows}
    azul = bars["Azul"]
    azul_rr = bars["Azul PEs + Dalorex mapping"]
    dalorex = bars["Dalorex"]
    gpu = bars["GPU (V100 model)"]
    # Fig. 2's shape: each ingredient contributes.
    assert azul > azul_rr > dalorex > gpu
