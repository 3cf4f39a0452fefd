"""Per-layer tracing of the pipeline benchmark.

The traced child (``child.py`` with ``PIPELINE_BENCH_TRACE`` set)
wraps the public entry point of each layer with a span and a few
counters, then runs the program unchanged.  Nothing under ``src/``
knows about it.  Spans are kept in memory and appended to
``<trace dir>/spans-<pid>.jsonl``: by the child at exit, and by a
forked worker each time its outermost span ends, so the worker
processes of ``--jobs N`` are traced too.

The harness reads those files back (:func:`load`) and turns them into
the per-layer metrics (:func:`layer_metrics`).  A layer's time is its
*self* time: a span's duration minus the part its child spans cover
(:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Set, Tuple

#: Directory the traced child writes its span files to.
TRACE_ENV = "PIPELINE_BENCH_TRACE"
#: ``time.monotonic_ns()`` of the harness just before it started the child.
LAUNCH_ENV = "PIPELINE_BENCH_LAUNCH_NS"

#: Span of a counter hook: traced, but belonging to no layer.
HOOK_SPAN = "trace.hook"

Span = Tuple[str, int, int]  # (name, start ns, end ns)


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Seconds of self time per span name, for spans of one thread.

    Spans of one thread nest: a span that starts inside another ends
    inside it.  The self time of a span is its duration minus the
    durations of its direct children.
    """
    totals: Dict[str, float] = defaultdict(float)
    # Stack of [name, end, duration, children's duration].
    stack: List[list] = []

    def close(frame):
        totals[frame[0]] += (frame[2] - frame[3]) / 1e9

    for name, start, end in sorted(spans, key=lambda s: (s[1], -s[2])):
        while stack and stack[-1][1] <= start:
            close(stack.pop())
        if stack:
            stack[-1][3] += end - start
        stack.append([name, end, end - start, 0])
    while stack:
        close(stack.pop())
    return dict(totals)


# ----------------------------------------------------------------------
# Recording (child side)
# ----------------------------------------------------------------------
class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self, directory: str):
        self.directory = Path(directory)
        self.pid = os.getpid()
        self.spans: List[Tuple[str, int, int, int]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.depth = 0
        self.forked = False
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        self.pid = os.getpid()
        self.spans = []
        self.counts = defaultdict(float)
        self.depth = 0
        self.forked = True

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def call(self, name: str, fn: Callable, args, kwargs):
        self.depth += 1
        start = time.monotonic_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(
                (name, start, time.monotonic_ns(), threading.get_ident())
            )
            self.depth -= 1
            if self.forked and self.depth == 0:
                self.flush()

    def flush(self, **meta) -> None:
        """Append the buffered spans and counters to this pid's file."""
        record = {"pid": self.pid, "spans": self.spans,
                  "counts": dict(self.counts), **meta}
        path = self.directory / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self.spans = []
        self.counts = defaultdict(float)


def _after_partition(rec, args, kwargs, result):
    from repro.hypergraph.metrics import connectivity_cut

    hgraph = args[0]
    rec.count("hypergraph.pins", len(hgraph.pins))
    rec.count("hypergraph.cut", connectivity_cut(hgraph, result))


def _after_coarsen(rec, args, kwargs, result):
    _, mappings = result
    rec.count("hypergraph.coarsen_levels", len(mappings))


def _after_run_kernel(rec, args, kwargs, result):
    rec.count("sim.kernels")
    rec.count("sim.ops", sum(result.op_counts.values()))


def _after_iteration(rec, args, kwargs, result):
    rec.count("sim.simulated_cycles", result.total_cycles)


def _after_get(rec, args, kwargs, result):
    from repro.cache import MISS

    rec.count("cache.gets")
    rec.count("cache.hits", result is not MISS)


def _before_simulate_many(kwargs):
    if kwargs.get("stats") is None:
        kwargs["stats"] = {}


def _after_simulate_many(rec, args, kwargs, result):
    stats = kwargs["stats"]
    rec.count("parallel.computed_parallel", stats.get("computed_parallel", 0))
    rec.count("parallel.worker_failures", stats.get("worker_failures", 0))


def _after_plan(rec, args, kwargs, result):
    _, sweep = result
    rec.count("experiments.points_unique", sweep.unique_points)


def _counter(name):
    def after(rec, args, kwargs, result):
        rec.count(name)
    return after


#: (span name, module, attribute, counter hook, argument hook).  The
#: span name is the metric prefix its self time is reported under.
TARGETS = (
    ("hypergraph.partition", "repro.hypergraph.partitioner", "partition",
     _after_partition, None),
    ("hypergraph.partition", "repro.hypergraph.partitioner",
     "multilevel_bisect", _counter("hypergraph.bisections"), None),
    ("hypergraph.coarsen", "repro.hypergraph.coarsen", "coarsen",
     _after_coarsen, None),
    ("hypergraph.initial", "repro.hypergraph.initial", "greedy_bisect",
     None, None),
    ("hypergraph.refine", "repro.hypergraph.refine", "fm_refine", None, None),
    ("core.build_hypergraph", "repro.core.azul_mapping",
     "build_pcg_hypergraph", None, None),
    ("core.map_azul", "repro.core.azul_mapping", "map_azul",
     _counter("core.map_azul_calls"), None),
    ("sparse.suite_build", "repro.sparse.suite", "get_suite_matrix",
     None, None),
    ("graph.color_permute", "repro.graph.permute", "color_and_permute",
     None, None),
    ("precond.ic0", "repro.precond.ic0", "ic0",
     _counter("precond.ic0_calls"), None),
    ("dataflow.compile", "repro.experiments.common", "compile_pcg_program",
     _counter("dataflow.compile_requests"), None),
    ("dataflow.compile", "repro.dataflow.program", "build_pcg_program",
     _counter("dataflow.compile_builds"), None),
    ("sim.run_kernel", "repro.sim.machine", "AzulMachine.run_kernel",
     _after_run_kernel, None),
    ("sim.run_kernel", "repro.sim.machine", "AzulMachine.simulate_iteration",
     _after_iteration, None),
    ("sim.verify", "repro.sim.machine", "verify_iteration", None, None),
    ("cache.get", "repro.cache.store", "ArtifactCache.get",
     _after_get, None),
    ("cache.put", "repro.cache.store", "ArtifactCache.put", None, None),
    ("parallel.simulate_many", "repro.parallel", "simulate_many",
     _after_simulate_many, _before_simulate_many),
    ("experiments.plan", "repro.experiments.executor", "plan_experiments",
     _after_plan, None),
    ("experiments.reduce", "repro.experiments.executor", "_finish",
     None, None),
    ("experiments.session", "repro.experiments.common",
     "ExperimentSession.prepare", None, None),
    ("experiments.session", "repro.experiments.common",
     "ExperimentSession.placement", None, None),
    ("experiments.session", "repro.experiments.common",
     "ExperimentSession.simulate", None, None),
    ("experiments.runner", "repro.experiments.runner", "main", None, None),
)


def _wrap(rec: Recorder, name: str, fn: Callable, after, before):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(kwargs)
        result = rec.call(name, fn, args, kwargs)
        if after is not None:
            rec.call(HOOK_SPAN, after, (rec, args, kwargs, result), {})
        return result
    return wrapper


def install(directory: str) -> Recorder:
    """Wrap every target in place; returns the process's recorder.

    A function is replaced wherever a loaded ``repro`` module holds it:
    as a module attribute (``from x import f`` copies the binding) or as
    a value of a module-level dict (the mapper registry).  Import every
    module that should see the wrappers before calling this.
    """
    rec = Recorder(directory)
    for name, module_name, attribute, after, before in TARGETS:
        owner = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapper = _wrap(rec, name, original, after, before)
        if path:
            setattr(owner, leaf, wrapper)
            continue
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    for item, target in list(value.items()):
                        if target is original:
                            value[item] = wrapper
    return rec


# ----------------------------------------------------------------------
# Reading back (harness side)
# ----------------------------------------------------------------------
def load(directory) -> List[dict]:
    """Every record the traced processes appended under ``directory``."""
    records = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            records.extend(json.loads(line) for line in handle if line.strip())
    return records


#: Layer span names; each one's self time is reported as ``<span>_s``.
SPANS = tuple(dict.fromkeys(target[0] for target in TARGETS))

#: Per-layer counters reported as they were counted.
COUNT_METRICS = (
    "hypergraph.bisections", "hypergraph.coarsen_levels", "hypergraph.cut",
    "core.map_azul_calls", "precond.ic0_calls",
    "dataflow.compile_requests", "dataflow.compile_builds",
    "sim.kernels", "sim.simulated_cycles", "cache.gets",
    "parallel.computed_parallel", "parallel.worker_failures",
    "experiments.points_unique",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(records: List[dict], main_pids: Set[int],
                  wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of traced children and their workers.

    ``main_pids`` are the children the harness started and ``wall_s``
    their summed wall time as the harness measured it.  Coverage
    (``trace.unattributed_s``) is taken in those children: their wall
    time minus start-up (``process.import_s``) minus the self time of
    every layer span they ran.  Worker self time counts towards the
    layers but not towards coverage.
    """
    counts: Dict[str, float] = defaultdict(float)
    selfs: Dict[str, float] = defaultdict(float)
    main_layer_s = 0.0
    import_s = 0.0
    for record in records:
        main = record["pid"] in main_pids
        for key, value in record["counts"].items():
            counts[key] += value
        lanes = defaultdict(list)
        for name, start, end, tid in record["spans"]:
            lanes[tid].append((name, start, end))
        for spans in lanes.values():
            for name, seconds in self_times(spans).items():
                selfs[name] += seconds
                if main and name != HOOK_SPAN:
                    main_layer_s += seconds
        if main:
            import_s += record.get("import_s", 0.0)

    metrics = {f"{span}_s": selfs.get(span, 0.0) for span in SPANS}
    metrics.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    hypergraph_s = sum(metrics[f"hypergraph.{phase}_s"] for phase in
                       ("partition", "coarsen", "initial", "refine"))
    metrics["hypergraph.pins_per_s"] = _ratio(counts["hypergraph.pins"],
                                              hypergraph_s)
    metrics["dataflow.program_hit_ratio"] = 1.0 - _ratio(
        counts["dataflow.compile_builds"], counts["dataflow.compile_requests"]
    )
    metrics["sim.ops_per_s"] = _ratio(counts["sim.ops"],
                                      metrics["sim.run_kernel_s"])
    metrics["cache.hit_ratio"] = _ratio(counts["cache.hits"],
                                        counts["cache.gets"])
    metrics["process.import_s"] = import_s
    metrics["trace.unattributed_s"] = wall_s - import_s - main_layer_s
    metrics["trace.wall_s"] = wall_s
    return metrics


def chrome_events(records: List[dict], labels: Dict[int, str],
                  origin_ns: int) -> List[dict]:
    """Chrome-trace complete events, one process lane per pid."""
    events = []
    named = set()
    for record in records:
        pid = record["pid"]
        if pid not in named:
            named.add(pid)
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "args": {"name": labels.get(pid, f"worker {pid}")}})
        for name, start, end, tid in record["spans"]:
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "pid": pid, "tid": tid,
                "ts": (start - origin_ns) / 1e3, "dur": (end - start) / 1e3,
            })
    return events


def since_launch() -> float:
    """Seconds from the harness's launch of this child until now.

    ``time.monotonic_ns`` reads one system-wide clock, so a stamp taken
    by the harness is comparable with one taken by its child.
    """
    return (time.monotonic_ns() - int(os.environ[LAUNCH_ENV])) / 1e9
