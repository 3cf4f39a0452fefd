"""Tests of the pipeline benchmark harness (no benchmark runs).

    python3 -m pytest benchmarks/pipeline/test_harness.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# The compare rule
# ----------------------------------------------------------------------
def _verdict(parent, change, better="lower", bound=0.1):
    return compare.verdict(parent, change, list(zip(parent, change)),
                           better, bound)


def test_compare_reports_a_gain():
    parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9]
    change = [value * 0.8 for value in parent]
    row = _verdict(parent, change)
    assert row["status"] == "gain"
    assert row["wins"] == 10 and row["pairs"] == 10


def test_compare_needs_nine_of_ten_wins_for_a_gain():
    parent = [10.0] * 10
    change = [8.0] * 8 + [11.0] * 2
    assert _verdict(parent, change)["status"] == "same"


def test_compare_reports_a_regression_beyond_the_bound():
    parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9]
    change = [value * 1.2 for value in parent]
    assert _verdict(parent, change)["status"] == "regression"
    assert _verdict(parent, [v * 1.05 for v in parent])["status"] == "same"
    higher_is_better = _verdict(parent, [v * 0.8 for v in parent],
                                better="higher")
    assert higher_is_better["status"] == "regression"


def test_compare_reports_unresolved_when_the_spread_exceeds_the_bound():
    parent = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0]
    change = [value * 1.05 for value in parent]
    assert _verdict(parent, change)["status"] == "unresolved"
    # Unless every change run is better than every parent run.
    assert _verdict(parent, [5.0] * 10)["status"] == "gain"


def test_compare_pairs_runs_by_seed(tmp_path):
    for side, scale in (("parent", 1.0), ("change", 1.3)):
        directory = tmp_path / side
        directory.mkdir()
        for seed in range(10):
            value = scale * (5.0 + 0.01 * seed)
            (directory / f"cold_map-seed{seed}.json").write_text(json.dumps({
                "schema": compare.SCHEMA, "workload": "cold_map", "seed": seed,
                "trace": False,
                "metrics": {"wall_s": {"value": value, "unit": "s"}},
            }))
    declared = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    (row,) = compare.compare(tmp_path / "parent", tmp_path / "change",
                             declared)
    assert (row["workload"], row["metric"]) == ("cold_map", "wall_s")
    assert row["pairs"] == 10 and row["status"] == "regression"


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_of_nested_spans():
    spans = [
        ("a", 0, 100), ("b", 10, 40), ("c", 20, 30),  # c inside b inside a
        ("d", 50, 90), ("b", 92, 97),  # two more children of a
        ("e", 100, 120),  # a second root, starting where a ends
    ]
    selfs = layers.self_times(spans)
    ns = {name: round(seconds * 1e9) for name, seconds in selfs.items()}
    assert ns == {"a": 100 - 30 - 40 - 5, "b": 20 + 5, "c": 10, "d": 40,
                  "e": 20}


def test_layer_metrics_take_coverage_in_the_main_process():
    ms = 1_000_000
    records = [
        {"pid": 1, "counts": {"cache.gets": 2, "cache.hits": 1},
         "import_s": 0.2,
         "spans": [["experiments.runner", 0, 700 * ms, 7],
                   ["cache.get", 100 * ms, 300 * ms, 7],
                   [layers.HOOK_SPAN, 300 * ms, 310 * ms, 7]]},
        {"pid": 2, "counts": {"cache.gets": 1},
         "spans": [["cache.get", 0, 500 * ms, 9]]},
    ]
    metrics = layers.layer_metrics(records, {1}, wall_s=1.0)
    assert abs(metrics["cache.get_s"] - 0.7) < 1e-9
    assert abs(metrics["experiments.runner_s"] - 0.49) < 1e-9
    assert metrics["cache.gets"] == 3
    assert abs(metrics["cache.hit_ratio"] - 1 / 3) < 1e-9
    # 1.0 wall - 0.2 import - 0.49 runner - 0.2 cache.get (the hook and
    # the worker's span do not count).
    assert abs(metrics["trace.unattributed_s"] - 0.11) < 1e-9


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def test_seed_zero_is_the_representative_set():
    from repro.sparse.suite import REPRESENTATIVE

    specs = workloads.draw(0)
    assert tuple(spec.analog for spec in specs) == REPRESENTATIVE
    assert [spec.kwargs.get("seed") for spec in specs] == [
        recipe[3] for recipe in workloads.RECIPES]


def test_draw_is_deterministic_and_keeps_sizes():
    assert workloads.draw(7) == workloads.draw(7)
    assert workloads.draw(7) != workloads.draw(8)
    names = workloads.matrix_names(7)
    assert len(set(names)) == len(names) == 6
    for base, other in zip(workloads.draw(0), workloads.draw(7)):
        a, b = base.build(), other.build()
        assert abs(b.n_rows - a.n_rows) <= 0.1 * a.n_rows


# ----------------------------------------------------------------------
# BENCHMARK.json against the harness
# ----------------------------------------------------------------------
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class _FakeRun:
    def setup(self):
        return run.Child(0, 1.0, 10.0, 1, Path("."))

    rep = setup


def test_benchmark_names_match_what_the_harness_emits():
    declared = {
        "workloads": [w["name"] for w in BENCHMARK["workloads"]],
        "end_to_end": [m["name"] for m in BENCHMARK["end_to_end"]],
        "per_layer": [m["name"] for m in BENCHMARK["per_layer"]],
    }
    for names in declared.values():
        assert all(NAME.fullmatch(name) for name in names)
        assert len(set(names)) == len(names)
    assert declared["workloads"] == list(workloads.WORKLOADS)
    timed = run.timed(_FakeRun(), seconds=0)["metrics"]
    assert sorted(declared["end_to_end"]) == sorted(timed)
    per_layer = set(layers.layer_metrics([], set(), 1.0))
    per_layer |= {"trace.overhead_ratio", "cache.disk_mb"}
    assert sorted(declared["per_layer"]) == sorted(per_layer)


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    copy = tmp_path / "benchmarks" / "pipeline"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns(
        "out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "cold_map",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
