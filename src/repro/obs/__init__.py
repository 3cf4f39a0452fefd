"""``repro.obs`` — the pipeline-wide observability leaf library.

One process-local metrics registry (counters, gauges, histograms,
timers), one span tracer, and two exporters (JSON metrics artifact,
Chrome-trace / Perfetto file) behind a module-level facade:

    import repro.obs as obs

    obs.enable()                        # off by default
    obs.counter("cache.hits_disk")
    with obs.span("pipeline.simulate", matrix="tmt_sym"):
        ...
    with obs.timer("partition.coarsen"):     # histogram + span
        ...
    obs.write_metrics("metrics.json", extra={"overrides": ...})
    obs.write_chrome_trace("trace.json")

Design constraints (see ``docs/observability.md``):

* **Leaf library.**  ``repro.obs`` imports nothing from ``repro``
  outside itself (standard library only), so every layer — simulator,
  partitioner, cache, sweep executor, experiments — may instrument
  itself without creating cycles.  Enforced by
  ``tools/check_layers.py``.
* **Near-zero cost when disabled.**  Observability is *off* by
  default; every facade call short-circuits on one module-global flag
  and ``span``/``timer`` return a shared no-op handle.  The
  simulator's hot loops carry **no** instrumentation at all — their issue
  traces are bridged post-hoc from ``KernelResult.issue_trace`` — so
  the disabled-path overhead is bounded by a handful of flag checks
  per pipeline stage (guarded by the ``sim_engine`` benchmark suite).
* **Process-local.**  Worker processes spawned by ``repro.parallel``
  or the partitioner do not inherit enablement; recorded facts that
  must survive the fan-out travel in the returned results (e.g. issue
  traces), and the parent records them.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Union

from repro.obs.export import (
    METRICS_SCHEMA,
    write_chrome_trace as _write_chrome_trace_file,
    write_metrics as _write_metrics_file,
)
from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.spans import (
    NOOP_SPAN,
    NoopSpan,
    PIPELINE_PID,
    Span,
    SpanHandle,
    Tracer,
)

__all__ = [
    "METRICS_SCHEMA", "PIPELINE_PID", "Histogram", "MetricsRegistry",
    "NoopSpan", "Span", "SpanHandle", "Tracer",
    "enable", "disable", "enabled", "metrics_enabled", "tracing_enabled",
    "counter", "gauge", "observe", "span", "timer",
    "registry", "tracer", "snapshot", "reset",
    "allocate_pid", "add_trace_events",
    "write_metrics", "write_chrome_trace",
]


class _State:
    """Module-global enablement flags (one attribute read per call)."""

    __slots__ = ("metrics", "tracing")

    def __init__(self) -> None:
        self.metrics = False
        self.tracing = False


_STATE = _State()
_REGISTRY = MetricsRegistry()
_TRACER = Tracer()


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def enable(metrics: bool = True, tracing: bool = True) -> None:
    """Turn observability on (both facets by default)."""
    _STATE.metrics = bool(metrics)
    _STATE.tracing = bool(tracing)


def disable() -> None:
    """Turn every facet off; the no-op fast paths take over."""
    _STATE.metrics = False
    _STATE.tracing = False


def enabled() -> bool:
    """True when either facet is on."""
    return _STATE.metrics or _STATE.tracing


def metrics_enabled() -> bool:
    return _STATE.metrics


def tracing_enabled() -> bool:
    return _STATE.tracing


def registry() -> MetricsRegistry:
    """The process-local registry (live object, not a copy)."""
    return _REGISTRY


def tracer() -> Tracer:
    """The process-local tracer (live object, not a copy)."""
    return _TRACER


def reset() -> None:
    """Drop all collected metrics, spans, and events (tests / reruns)."""
    _REGISTRY.reset()
    _TRACER.reset()


def snapshot() -> Dict[str, Dict[str, Any]]:
    """JSON-ready copy of every metric."""
    return _REGISTRY.snapshot()


# ----------------------------------------------------------------------
# Recording facade (each call short-circuits when disabled)
# ----------------------------------------------------------------------
def counter(name: str, value: float = 1.0) -> None:
    """Increment counter ``name`` by ``value`` (no-op when disabled)."""
    if _STATE.metrics:
        _REGISTRY.counter_inc(name, value)


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` (no-op when disabled)."""
    if _STATE.metrics:
        _REGISTRY.gauge_set(name, value)


def observe(name: str, value: float) -> None:
    """Record one histogram sample (no-op when disabled)."""
    if _STATE.metrics:
        _REGISTRY.observe(name, value)


def span(name: str, **args: Any) -> Union[SpanHandle, NoopSpan]:
    """A traced region; returns the shared no-op handle when disabled."""
    if _STATE.tracing:
        return _TRACER.span(name, **args)
    return NOOP_SPAN


class _TimerSpan(SpanHandle):
    """A span that also records its duration as a histogram sample."""

    __slots__ = ("_metric",)

    def __init__(self, tracer_: Tracer, name: str, args: Dict[str, Any],
                 metric: str) -> None:
        super().__init__(tracer_, name, args)
        self._metric = metric

    def __exit__(self, *exc_info: object) -> None:
        SpanHandle.__exit__(self, *exc_info)
        if _STATE.metrics:
            _REGISTRY.observe(self._metric, self._span.duration_us / 1e6)


class _MetricTimer:
    """Histogram-only timer used when tracing is off but metrics on."""

    __slots__ = ("_metric", "_start")

    def __init__(self, metric: str) -> None:
        self._metric = metric
        self._start = 0.0

    def set(self, **kwargs: Any) -> None:
        pass

    def __enter__(self) -> "_MetricTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        _REGISTRY.observe(self._metric, time.perf_counter() - self._start)


def timer(name: str, **args: Any) -> Union[SpanHandle, _MetricTimer,
                                           NoopSpan]:
    """Timed phase: a ``<name>.seconds`` histogram sample *and* a span.

    The workhorse of phase instrumentation — one ``with obs.timer(...)``
    feeds both the metrics artifact (per-phase timer histograms) and
    the Chrome trace (a span), whichever facets are enabled.
    """
    if _STATE.tracing:
        return _TimerSpan(_TRACER, name, dict(args), f"{name}.seconds")
    if _STATE.metrics:
        return _MetricTimer(f"{name}.seconds")
    return NOOP_SPAN


# ----------------------------------------------------------------------
# Foreign timelines (simulator issue traces)
# ----------------------------------------------------------------------
def allocate_pid(label: str) -> int:
    """Reserve a Chrome-trace pid for a foreign timeline (0 if off)."""
    if _STATE.tracing:
        return _TRACER.allocate_pid(label)
    return 0


def add_trace_events(events: List[Dict[str, Any]]) -> None:
    """Merge pre-formed Chrome-trace events (no-op when disabled)."""
    if _STATE.tracing and events:
        _TRACER.add_events(events)


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def write_metrics(path: str,
                  extra: Optional[Dict[str, Any]] = None) -> str:
    """Write the JSON metrics artifact from the live registry."""
    return _write_metrics_file(path, _REGISTRY.snapshot(), extra=extra)


def write_chrome_trace(path: str,
                       metadata: Optional[Dict[str, Any]] = None) -> str:
    """Write the Chrome-trace file from the live tracer."""
    return _write_chrome_trace_file(
        path, _TRACER.trace_events(), metadata=metadata
    )
