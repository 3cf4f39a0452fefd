#!/usr/bin/env python
"""Emit a tracked benchmark run (``BENCH_<suite>.json``).

Drives pytest-benchmark over one marked benchmark suite and writes the
standard pytest-benchmark JSON, then prints each benchmark's best-round
time.

Suites:

* ``sim`` — the ``sim_engine`` marker set in
  ``benchmarks/bench_kernels.py``: simulation of the 300-node FEM
  SpMV/SpTRSV programs.
* ``mapping`` — the ``mapping_engine`` marker set in
  ``benchmarks/bench_mapping.py``: quality-preset Azul partitions of
  consph and of the largest suite matrix (BenElechi1) the Sec. VI-D
  cost study tracks.
* ``solver`` — the ``solver_kernels`` marker set in
  ``benchmarks/bench_solver.py``: level-scheduled SpTRSV, IC(0), and
  end-to-end PCG on the largest solver-suite matrix (BenElechi1 scaled
  4x).
* ``compile`` — the ``compile_program`` marker set in
  ``benchmarks/bench_compile.py``: dataflow lowering of the full PCG
  program triple on BenElechi1 scaled 4x mapped onto the 64-tile torus.

Usage::

    python benchmarks/emit_bench.py --suite mapping \
        [--output BENCH_mapping.json] [--pytest-arg ...]

Gate the emitted file against the committed baseline with
``benchmarks/check_regression.py --suite mapping``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Per-suite harness description: which benchmark file / marker to run
#: and where the JSON lands by default.
SUITES = {
    "sim": {
        "bench_file": "bench_kernels.py",
        "marker": "sim_engine",
        "default_output": "BENCH_sim.json",
    },
    "mapping": {
        "bench_file": "bench_mapping.py",
        "marker": "mapping_engine",
        "default_output": "BENCH_mapping.json",
    },
    "solver": {
        "bench_file": "bench_solver.py",
        "marker": "solver_kernels",
        "default_output": "BENCH_solver.json",
    },
    "compile": {
        "bench_file": "bench_compile.py",
        "marker": "compile_program",
        "default_output": "BENCH_compile.json",
    },
}


def load_times(path: Path) -> dict:
    """Map short benchmark name -> best-round seconds from a JSON file.

    Uses ``stats.min`` rather than the mean: the minimum over rounds is
    the standard robust estimator for micro-benchmarks — transient
    machine load only ever inflates timings, so the best round is the
    closest observation of the true cost.
    """
    data = json.loads(path.read_text())
    times = {}
    for entry in data.get("benchmarks", []):
        name = entry["name"].split("[")[0]
        times[name] = entry["stats"]["min"]
    return times


def summarize(path: Path) -> int:
    times = load_times(path)
    if not times:
        print(f"{path}: no benchmarks recorded", file=sys.stderr)
        return 1
    width = max(len(name) for name in times)
    print(f"\n{path} (best of rounds):")
    for name, best in sorted(times.items()):
        print(f"  {name:<{width}}  {best * 1e3:9.2f} ms")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--suite", default="sim", choices=sorted(SUITES),
        help="benchmark suite to run (default: %(default)s)",
    )
    parser.add_argument(
        "--output", default=None,
        help="benchmark JSON path (default: the suite's BENCH_*.json)",
    )
    parser.add_argument(
        "--summary-only", action="store_true",
        help="summarize an existing JSON without re-running benchmarks",
    )
    parser.add_argument(
        "--pytest-arg", action="append", default=[],
        help="extra argument forwarded to pytest (repeatable)",
    )
    args = parser.parse_args(argv)
    spec = SUITES[args.suite]
    output = Path(args.output or spec["default_output"])

    if not args.summary_only:
        command = [
            sys.executable, "-m", "pytest",
            str(REPO_ROOT / "benchmarks" / spec["bench_file"]),
            "-m", spec["marker"],
            "--benchmark-only",
            "--benchmark-disable-gc",
            f"--benchmark-json={output}",
            "-q",
        ] + args.pytest_arg
        print("$", " ".join(command))
        status = subprocess.call(command, cwd=REPO_ROOT)
        if status != 0:
            return status
    if not output.exists():
        print(f"{output}: not found", file=sys.stderr)
        return 1
    return summarize(output)


if __name__ == "__main__":
    sys.exit(main())
