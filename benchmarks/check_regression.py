#!/usr/bin/env python
"""Gate a tracked benchmark run against its committed baseline.

Each benchmark's best-of-rounds time in the pytest-benchmark JSON
emitted by ``benchmarks/emit_bench.py`` must not be more than
``--threshold`` (default 25%) slower than the same benchmark in the
baseline file, and every baseline benchmark must be present in the run:
one that was renamed or deselected fails the gate.  Absolute timings are
machine dependent, so CI keeps the baselines refreshed from the same
runner class (see ``benchmarks/baselines/``).

Exit status is non-zero on any violation.

Usage::

    python benchmarks/check_regression.py BENCH_mapping.json \
        --suite mapping \
        --baseline benchmarks/baselines/BENCH_mapping.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from emit_bench import SUITES, load_times  # noqa: E402

BASELINE_DIR = Path(__file__).resolve().parent / "baselines"


def check(current_path: Path, baseline_path: Path,
          threshold: float) -> int:
    current = load_times(current_path)
    if not baseline_path.exists():
        print(f"  baseline {baseline_path} missing — skipping absolute "
              "regression check")
        return 0
    baseline = load_times(baseline_path)
    failures = 0
    for name in sorted(set(baseline) - set(current)):
        print(f"  {name}: in the baseline but not in this run [MISSING]")
        failures += 1
    for name in sorted(current):
        if name not in baseline or baseline[name] <= 0:
            print(f"  new benchmark (no baseline): {name}")
            continue
        ratio = current[name] / baseline[name]
        status = "ok"
        if ratio > 1.0 + threshold:
            status = "REGRESSION"
            failures += 1
        print(f"  {name}: {current[name] * 1e3:.2f} ms vs baseline "
              f"{baseline[name] * 1e3:.2f} ms ({ratio:.2f}x) [{status}]")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("current", help="freshly emitted BENCH_*.json")
    parser.add_argument(
        "--suite", default="sim", choices=sorted(SUITES),
        help="benchmark suite being gated (default: %(default)s)",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="committed baseline JSON "
             "(default: benchmarks/baselines/<suite default output>)",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.25,
        help="max allowed slowdown vs baseline (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    baseline = Path(
        args.baseline
        or BASELINE_DIR / SUITES[args.suite]["default_output"]
    )
    print(f"checking {args.current} against {baseline} "
          f"(suite {args.suite}, threshold {args.threshold:.0%})")
    failures = check(Path(args.current), baseline, args.threshold)
    print(f"failures: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
