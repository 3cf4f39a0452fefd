"""Benchmarks for sensitivity & scaling: Figs. 25/26/27/28."""

from benchmarks.conftest import run_once
from repro.experiments import run_experiment


def test_fig25_hop_latency(benchmark, subset):
    result = run_once(benchmark, run_experiment, "fig25", matrices=subset,
                      latencies=(1, 2, 4))
    values = result.column("gmean_gflops")
    # Monotonic degradation, but mild (Azul is latency-tolerant).
    assert values[0] >= values[-1]
    assert values[-1] > 0.5 * values[0]


def test_fig26_sram_latency(benchmark, subset):
    result = run_once(benchmark, run_experiment, "fig26", matrices=subset,
                      latencies=(1, 2, 4))
    values = result.column("gmean_gflops")
    assert values[0] >= values[-1]
    assert values[-1] > 0.5 * values[0]


def test_fig27_multithreading(benchmark, subset):
    result = run_once(benchmark, run_experiment, "fig27", matrices=subset)
    # Multithreading helps (paper: 1.5x).
    assert result.extras["multithreading_gain"] > 1.0


def test_fig28_scaling(benchmark):
    cases = (("nd12k", 1), ("thermal2", 1))
    result = run_once(benchmark, run_experiment, "fig28", cases=cases)
    rows = {row["matrix"]: row for row in result.rows}
    # High-parallelism thermal2 must scale better than parallelism-
    # limited nd12k (Fig. 28's key contrast).
    assert rows["thermal2"]["scaling_4x"] > rows["nd12k"]["scaling_4x"]
