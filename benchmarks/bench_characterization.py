"""Benchmarks for Azul characterization: Figs. 21/22/24 and Table V."""

from benchmarks.conftest import run_once
from repro.experiments import run_experiment


def test_fig21_cycle_breakdown(benchmark, subset):
    result = run_once(benchmark, run_experiment, "fig21", matrices=subset)
    for row in result.rows:
        fractions = [row[k] for k in ("fmac", "add", "mul", "send", "stall")]
        assert abs(sum(fractions) - 1.0) < 1e-9
        # FMACs are the dominant *operation* class (Fig. 21).
        assert row["fmac"] >= row["add"]
        assert row["fmac"] >= row["mul"]


def test_fig22_kernel_breakdown(benchmark, subset):
    result = run_once(benchmark, run_experiment, "fig22", matrices=subset)
    for row in result.rows:
        assert abs(row["spmv"] + row["sptrsv"] + row["vector"] - 1.0) < 1e-9
        # SpTRSV dominates runtime even on Azul (Fig. 22's shape).
        assert row["sptrsv"] > row["spmv"]


def test_tab5_area(benchmark):
    result = run_once(benchmark, run_experiment, "tab5")
    paper_rows = {
        row["component"]: row["area_mm2"]
        for row in result.rows if row["configuration"] == "paper 64x64"
    }
    assert 150 < paper_rows["Total"] < 160
    assert paper_rows["SRAMs"] / paper_rows["Total"] > 0.7


def test_fig24_power(benchmark, subset):
    result = run_once(benchmark, run_experiment, "fig24", matrices=subset)
    for row in result.rows:
        # SRAM dominates dynamic power (Sec. VI-E).
        assert row["sram"] > row["compute"]
        assert row["sram"] > row["noc"]
        assert row["total"] > 0
