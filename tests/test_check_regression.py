"""The absolute-time regression gate of ``benchmarks/check_regression.py``.

A benchmark slower than the threshold fails, a baseline benchmark absent
from the run fails (a rename or deselection must not pass silently), a
benchmark new to the run passes with a notice, and a missing baseline
file skips the gate.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def check():
    spec = importlib.util.spec_from_file_location(
        "check_regression", BENCH_DIR / "check_regression.py"
    )
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.check


def bench_json(path: Path, times: dict) -> Path:
    """A minimal pytest-benchmark JSON with the given best-round times."""
    path.write_text(json.dumps({"benchmarks": [
        {"name": name, "stats": {"min": best}} for name, best in times.items()
    ]}))
    return path


def test_slower_than_threshold_fails(check, tmp_path, capsys):
    baseline = bench_json(tmp_path / "base.json", {"test_a": 1.0, "test_b": 1.0})
    current = bench_json(tmp_path / "cur.json", {"test_a": 1.30, "test_b": 1.20})
    assert check(current, baseline, 0.25) == 1
    out = capsys.readouterr().out
    assert "test_a: 1300.00 ms" in out and "[REGRESSION]" in out
    assert "test_b: 1200.00 ms" in out and "[ok]" in out


def test_missing_benchmark_fails(check, tmp_path, capsys):
    baseline = bench_json(tmp_path / "base.json", {"test_a": 1.0, "test_b": 1.0})
    current = bench_json(tmp_path / "cur.json", {"test_a": 1.0})
    assert check(current, baseline, 0.25) == 1
    assert "test_b: in the baseline but not in this run [MISSING]" in (
        capsys.readouterr().out
    )


def test_new_benchmark_passes_with_notice(check, tmp_path, capsys):
    baseline = bench_json(tmp_path / "base.json", {"test_a": 1.0})
    current = bench_json(tmp_path / "cur.json", {"test_a": 0.9, "test_new": 5.0})
    assert check(current, baseline, 0.25) == 0
    assert "new benchmark (no baseline): test_new" in capsys.readouterr().out


def test_missing_baseline_file_skips(check, tmp_path, capsys):
    current = bench_json(tmp_path / "cur.json", {"test_a": 1.0})
    assert check(current, tmp_path / "absent.json", 0.25) == 0
    assert "skipping absolute regression check" in capsys.readouterr().out
