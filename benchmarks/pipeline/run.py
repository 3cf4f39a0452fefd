#!/usr/bin/env python3
"""End-to-end benchmark of the experiment pipeline (see README.md).

    python3 benchmarks/pipeline/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--out DIR]
    python3 benchmarks/pipeline/run.py compare PARENT_DIR CHANGE_DIR

Without ``--workload`` every workload runs in turn.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace 1`` the per-layer ones).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

import compare  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

#: Set-ups per timed run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Timed reps per run at least, however long they take.
MIN_REPS = 3
#: A child still running after this long is killed with its workers.
CHILD_TIMEOUT_S = 150


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def unpin_overrides() -> None:
    """Drop every AZUL_* and REPRO_* variable from this process.

    Children inherit the rest of the environment, so none of them runs
    a reference twin, a forced job count or a foreign cache setting.
    """
    for key in [k for k in os.environ if k.startswith(("AZUL_", "REPRO_"))]:
        del os.environ[key]


def pinned_environment(seed: int) -> Dict[str, str]:
    """The environment of every child (after ``unpin_overrides``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    env[workloads.SEED_ENV] = str(seed)
    return env


@dataclass
class Child:
    """One finished child process."""

    code: int
    wall_s: float
    rss_mb: float
    pid: int
    directory: Path

    @property
    def cache(self) -> Path:
        return self.directory / "cache"

    def stdout(self) -> str:
        return (self.directory / "stdout.txt").read_text(errors="replace")

    def stderr_tail(self) -> str:
        text = (self.directory / "stderr.txt").read_text(errors="replace")
        return text.strip().splitlines()[-1] if text.strip() else ""


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(args: List[str], directory: Path, env: Dict[str, str],
              template: Optional[Path] = None,
              trace: bool = False) -> Child:
    """Run ``child.py args`` in ``directory`` with its own cache.

    The cache starts as a copy of ``template`` (or empty).  Wall time
    runs from just before the process starts to when it has been
    reaped; peak RSS is the largest of the child and the workers it
    reaped.
    """
    directory.mkdir(parents=True)
    if template is not None:
        shutil.copytree(template, directory / "cache")
    env = dict(env, REPRO_CACHE_DIR=str(directory / "cache"))
    if trace:
        (directory / "trace").mkdir()
        env[layers.TRACE_ENV] = str(directory / "trace")
    with open(directory / "stdout.txt", "wb") as out, \
            open(directory / "stderr.txt", "wb") as err:
        env[layers.LAUNCH_ENV] = str(time.monotonic_ns())
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=directory, env=env, stdout=out, stderr=err,
            start_new_session=True,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # workers the child failed to stop, if any
    return Child(proc.returncode, wall_s, usage.ru_maxrss / 1024,
                 proc.pid, directory)


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------
@dataclass
class Checks:
    """Output checks of one run; each attempt passes or fails.

    ``reference`` maps an experiment id to the sha256 of its CSV.  It
    starts from the committed golden digests (seed 0) and the digests
    earlier runs of the same code and seed recorded; the first output
    of an experiment not in it becomes its reference.  So every output
    of one experiment, in every rep and workload, must be identical.
    """

    reference: Dict[str, str]
    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    def process(self, child: Child, what: str) -> bool:
        return self.expect(
            child.code == 0,
            f"{what}: exit code {child.code}: {child.stderr_tail()}",
        )

    def outputs(self, child: Child, experiments, what: str) -> None:
        for experiment in experiments:
            path = child.directory / "csv" / f"{experiment}.csv"
            if not self.expect(path.is_file(),
                               f"{what}: {experiment}.csv missing"):
                continue
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            known = self.reference.setdefault(experiment, digest)
            self.expect(digest == known,
                        f"{what}: {experiment}.csv differs from reference")


def source_digest() -> str:
    """sha256 over the program's sources, naming the code measured."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Ledger:
    """CSV digests recorded by earlier runs, per source digest and seed."""

    def __init__(self, path: Path, code: str):
        self.path = path
        self.code = code
        self.data = (json.loads(path.read_text(encoding="utf-8"))
                     if path.is_file() else {})

    def get(self, seed: int) -> Dict[str, str]:
        return dict(self.data.get(self.code, {}).get(str(seed), {}))

    def record(self, seed: int, digests: Dict[str, str]) -> None:
        self.data.setdefault(self.code, {}).setdefault(str(seed), {}).update(
            digests)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True),
                       encoding="utf-8")
        os.replace(tmp, self.path)


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
class WorkloadRun:
    """Set-up, timed reps and checks of one workload and seed."""

    def __init__(self, workload: workloads.Workload, seed: int,
                 work: Path, checks: Checks):
        self.workload = workload
        self.work = work
        self.checks = checks
        self.env = pinned_environment(seed)
        self.counter = 0
        self.template: Optional[Path] = None
        names = workloads.matrix_names(seed)
        self.runner_args = [
            "run", *workload.experiments, "--matrices", *names,
            "--jobs", str(workload.jobs), "--keep-going",
        ]

    def _directory(self, label: str) -> Path:
        self.counter += 1
        return self.work / f"{self.counter:03d}-{label}"

    def setup(self, trace: bool = False) -> Child:
        """One set-up; the first becomes the template of every rep."""
        kind = self.workload.setup
        directory = self._directory(f"setup-{kind}")
        if kind == "placements":
            child = run_child(["place"], directory, self.env, trace=trace)
            self.checks.process(child, "set-up placements")
        elif kind == "warm":
            child = run_child(
                self.runner_args + ["--csv-dir", str(directory / "csv")],
                directory, self.env, trace=trace)
            self.checks.process(child, "set-up cold run")
            self.checks.outputs(child, self.workload.experiments,
                                "set-up cold run")
        else:
            child = run_child(self.runner_args + ["--plan"], directory,
                              self.env, trace=trace)
            if self.checks.process(child, "set-up plan"):
                points, unique = self.workload.plan_points
                expected = f"plan: {points} points, {unique} unique globally"
                self.checks.expect(expected in child.stdout(),
                                   f"set-up plan: expected {expected!r}")
        if kind != "plan" and self.template is None:
            self.template = child.cache
        return child

    def rep(self, trace: bool = False) -> Child:
        directory = self._directory("rep-trace" if trace else "rep")
        child = run_child(
            self.runner_args + ["--csv-dir", str(directory / "csv")],
            directory, self.env, template=self.template, trace=trace)
        self.checks.process(child, "rep")
        self.checks.outputs(child, self.workload.experiments, "rep")
        return child


def timed(run: WorkloadRun, seconds: float) -> dict:
    """End-to-end metrics: set-ups, then reps for ``seconds``."""
    setups = [run.setup() for _ in range(SETUP_REPEATS)]
    reps: List[Child] = []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or (
            time.perf_counter() - start
            + statistics.median(r.wall_s for r in reps) <= seconds):
        reps.append(run.rep())
    walls = [r.wall_s for r in reps]
    return {
        "metrics": {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
            "setup_s": statistics.median(s.wall_s for s in setups),
        },
        "samples": {
            "wall_s": walls,
            "peak_rss_mb": [r.rss_mb for r in reps],
            "setup_s": [s.wall_s for s in setups],
        },
    }


def traced(run: WorkloadRun, seconds: float, trace_path: Path) -> dict:
    """Per-layer metrics: one traced set-up plus the median traced rep.

    Pairs of an untraced and a traced rep, in alternating order, run
    for ``seconds``; their median walls give the tracing overhead.
    """
    setup = run.setup(trace=True)
    plain: List[Child] = []
    reps: List[Child] = []
    start = time.perf_counter()
    while not reps or (time.perf_counter() - start
                       + plain[-1].wall_s + reps[-1].wall_s <= seconds):
        if len(reps) % 2:
            reps.append(run.rep(trace=True))
            plain.append(run.rep())
        else:
            plain.append(run.rep())
            reps.append(run.rep(trace=True))
    rep = sorted(reps, key=lambda r: r.wall_s)[(len(reps) - 1) // 2]
    records = layers.load(setup.directory / "trace") + layers.load(
        rep.directory / "trace")
    metrics = layers.layer_metrics(records, {setup.pid, rep.pid},
                                   setup.wall_s + rep.wall_s)
    metrics["trace.overhead_ratio"] = (
        statistics.median(r.wall_s for r in reps)
        / statistics.median(r.wall_s for r in plain) - 1.0)
    metrics["cache.disk_mb"] = sum(
        p.stat().st_size for p in rep.cache.rglob("*") if p.is_file()) / 2**20
    origin = min((s[1] for r in records for s in r["spans"]), default=0)
    events = layers.chrome_events(
        records, {setup.pid: "set-up", rep.pid: "rep"}, origin)
    trace_path.write_text(json.dumps({"traceEvents": events}),
                          encoding="utf-8")
    return {
        "metrics": metrics,
        "samples": {"traced_wall_s": [r.wall_s for r in reps],
                    "untraced_wall_s": [r.wall_s for r in plain]},
    }


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def provenance(seed: int) -> dict:
    import numpy

    sys.path.insert(0, str(SRC))
    from repro.config import overrides

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "seed": seed,
        "matrices": [{"name": spec.name, "generator": spec.generator,
                      "kwargs": spec.kwargs}
                     for spec in workloads.draw(seed)],
        "overrides": overrides(),
    }


def report(name: str, metrics: dict, samples: dict, attempted: int,
           failures: List[str]) -> None:
    """Print one workload's metrics, checks and sample counts."""
    for metric, entry in metrics.items():
        print(f"{name:14s} {metric:28s} {entry['value']:>14.6g} "
              f"{entry['unit']}")
    print(f"{name:14s} {'failed_ratio':28s} "
          f"{len(failures) / attempted:>14.6g} "
          f"({len(failures)} of {attempted} checks)")
    print(f"{name:14s} {'samples':28s} " + ", ".join(
        f"{key} n={len(values)} max={max(values):.4g}"
        for key, values in samples.items()))
    for failure in failures:
        print(f"{name:14s} FAILED {failure}")


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_args(argv, benchmark: dict):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 is the miniature REPRESENTATIVE")
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"],
                        help="how long the timed reps of one workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: a traced run giving the per-layer metrics")
    parser.add_argument("--out", type=Path, default=HERE / "out" / "results",
                        help="directory for result files and traces")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare PARENT_DIR CHANGE_DIR",
                  file=sys.stderr)
            return 2
        return compare.main(argv[1], argv[2], benchmark)
    args = parse_args(argv, benchmark)
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    if "cold_parallel" in names and nproc() < 2:
        print("error: cold_parallel needs at least 2 cores", file=sys.stderr)
        return 2

    unpin_overrides()
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    out_root = HERE / "out"
    args.out.mkdir(parents=True, exist_ok=True)
    info = provenance(args.seed)
    ledger = Ledger(out_root / "digests.json", info["source_sha256"])
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    reference = dict(golden if args.seed == 0 else {}, **ledger.get(args.seed))
    checks = Checks(reference)
    work = out_root / "work" / f"{os.getpid()}"
    summary: Dict[str, dict] = {}
    try:
        for name in names:
            run = WorkloadRun(workloads.WORKLOADS[name], args.seed,
                              work / name, checks)
            stem = f"{name}-seed{args.seed}" + (".trace" if args.trace else "")
            before = (checks.attempted, len(checks.failures))
            if args.trace:
                result = traced(run, args.seconds,
                                args.out / f"{stem}.chrome.json")
            else:
                result = timed(run, args.seconds)
            metrics = {metric: {"value": result["metrics"][metric],
                                "unit": units[metric]} for metric in units}
            attempted = checks.attempted - before[0]
            failures = checks.failures[before[1]:]
            report(name, metrics, result["samples"], attempted, failures)
            (args.out / f"{stem}.json").write_text(json.dumps({
                "schema": compare.SCHEMA, "workload": name, "seed": args.seed,
                "trace": bool(args.trace), "seconds": args.seconds,
                "provenance": info, "metrics": metrics,
                "samples": result["samples"],
                "checks": {"attempted": attempted, "failures": failures},
            }, indent=1), encoding="utf-8")
            summary[name] = metrics
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not checks.failures:
        ledger.record(args.seed, checks.reference)
    if len(names) == 1:
        metrics = summary[names[0]]
    else:
        metrics = {f"{name}.{metric}": entry
                   for name, entries in summary.items()
                   for metric, entry in entries.items()}
    # A failed check is reported in the result, not by the exit code.
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
