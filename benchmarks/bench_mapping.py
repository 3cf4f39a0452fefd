"""Benchmarks for the mapping study: Figs. 10/11/17/23 and Sec. VI-D.

The ``mapping_engine``-marked benchmarks additionally track the
partitioner hot path itself in ``BENCH_mapping.json`` (see
``benchmarks/emit_bench.py --suite mapping``): quality-preset Azul
partitions of a medium matrix and of the largest small-section suite
matrix (BenElechi1), whose mapping cost dominates the Sec. VI-D table.
"""

import pytest

from benchmarks.conftest import run_once
from repro.experiments import run_experiment

#: Medium-size matrix for the quality-preset partition.
QUALITY_MATRIX = "consph"
#: Largest small-section suite matrix: the Sec. VI-D cost ceiling.
LARGEST_MATRIX = "BenElechi1"


def _quality_map(name: str):
    from repro.core.azul_mapping import map_azul
    from repro.experiments.common import ExperimentSession
    from repro.hypergraph import PartitionerOptions

    session = ExperimentSession()
    prepared = session.prepare(name)
    return map_azul(
        prepared.matrix, prepared.lower, 64,
        options=PartitionerOptions.quality(seed=0),
    )


@pytest.mark.mapping_engine
def test_mapping_quality(benchmark):
    placement = run_once(benchmark, lambda: _quality_map(QUALITY_MATRIX))
    assert placement.mapper == "azul"


@pytest.mark.mapping_engine
def test_mapping_quality_largest(benchmark):
    placement = run_once(benchmark, lambda: _quality_map(LARGEST_MATRIX))
    assert placement.mapper == "azul"


def test_fig10_idealized_pe_mappings(benchmark, subset):
    result = run_once(benchmark, run_experiment, "fig10", matrices=subset)
    # Even with idealized PEs, position-based mappings lose to Azul's.
    # (At 64 tiles a high-parallelism grid can tie — the paper's margin
    # comes from 4096 tiles — so require a majority win plus gmean.)
    wins = sum(row["azul"] > row["round_robin"] for row in result.rows)
    assert wins >= (len(result.rows) + 1) // 2
    assert result.extras["azul_vs_round_robin"] > 1.2


def test_fig11_traffic_reduction(benchmark, subset):
    result = run_once(benchmark, run_experiment, "fig11", matrices=subset)
    for row in result.rows:
        # Azul's mapping must produce the least traffic of all four.
        assert row["azul_norm"] <= row["round_robin_norm"]
        assert row["azul_norm"] <= row["block_norm"]
        assert row["azul_norm"] <= row["sparsep_norm"]
    assert result.extras["azul_traffic_reduction_vs_rr"] > 3.0


def test_fig17_time_balancing(benchmark):
    result = run_once(benchmark, run_experiment, "fig17")
    # Time balancing must not slow the kernel down, and the issue
    # histogram of the balanced mapping must end earlier (no long tail).
    assert result.extras["speedup"] >= 1.0
    last_bucket = result.rows[-1]
    assert last_bucket["time_balanced"] <= max(
        last_bucket["nonzero_balanced"], 1
    )


def test_fig23_end_to_end_mappings(benchmark, subset):
    result = run_once(benchmark, run_experiment, "fig23", matrices=subset)
    for row in result.rows:
        assert row["azul"] > row["round_robin"]
        assert row["azul"] > row["sparsep"]
    assert result.extras["azul_vs_round_robin"] > 1.0


def test_tabD_mapping_costs(benchmark, subset, monkeypatch, tmp_path):
    # An empty cache, so the timed call maps every pair: fig10/11/23
    # above cache the same placements, and tabD reports stored times.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    result = run_once(benchmark, run_experiment, "tabD", matrices=subset)
    for row in result.rows:
        # Azul's mapping is the most expensive, Block the cheapest
        # (Sec. VI-D's ordering).
        assert row["azul_s"] > row["block_s"]
        assert row["azul_s"] > row["sparsep_s"]
