"""Span-based tracing with Chrome-trace-compatible records.

A *span* is one named, timed region of the pipeline
(``pipeline.simulate``, ``partition.coarsen``, ...).  Spans nest: each
thread keeps its own stack, so a span opened while another is active
records its depth and parent name.  Finished spans accumulate on the
:class:`Tracer` and are exported as Chrome-trace ``"X"`` (complete)
events by :mod:`repro.obs.export`.

Timestamps come from :func:`time.perf_counter` relative to the
tracer's epoch, converted to microseconds (the Chrome-trace unit).
The tracer also accepts pre-formed event dicts
(:meth:`Tracer.add_events`) so callers can merge foreign timelines —
the simulator's per-cycle issue traces — into the same file under
their own process ids (:meth:`Tracer.allocate_pid`).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

#: Chrome-trace process id of the wall-clock pipeline spans.
PIPELINE_PID = 1


class Span:
    """One finished (or in-flight) traced region."""

    __slots__ = ("name", "args", "start_us", "duration_us", "tid",
                 "depth", "parent")

    def __init__(self, name: str, args: Dict[str, Any], start_us: float,
                 tid: int, depth: int, parent: Optional[str]) -> None:
        self.name = name
        self.args = args
        self.start_us = start_us
        self.duration_us = 0.0
        self.tid = tid
        self.depth = depth
        self.parent = parent

    def to_event(self) -> Dict[str, Any]:
        """This span as a Chrome-trace complete event."""
        event: Dict[str, Any] = {
            "name": self.name,
            "ph": "X",
            "cat": "pipeline",
            "ts": self.start_us,
            "dur": self.duration_us,
            "pid": PIPELINE_PID,
            "tid": self.tid,
        }
        if self.args:
            event["args"] = dict(self.args)
        return event


class SpanHandle:
    """Context manager recording one span on enter/exit.

    ``set(**kwargs)`` attaches arguments mid-flight (e.g. counters
    known only at the end of the region).
    """

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", name: str,
                 args: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._span = Span(name, args, 0.0, 0, 0, None)

    def set(self, **kwargs: Any) -> None:
        self._span.args.update(kwargs)

    def __enter__(self) -> "SpanHandle":
        tracer = self._tracer
        span = self._span
        stack = tracer._stack()
        span.depth = len(stack)
        span.parent = stack[-1].name if stack else None
        span.tid = tracer._tid()
        span.start_us = (time.perf_counter() - tracer.epoch) * 1e6
        stack.append(span)
        return self

    def __exit__(self, *exc_info: object) -> None:
        tracer = self._tracer
        span = self._span
        now_us = (time.perf_counter() - tracer.epoch) * 1e6
        span.duration_us = now_us - span.start_us
        stack = tracer._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # defensive: mismatched exit order
            stack.remove(span)
        tracer.record(span)


class NoopSpan:
    """The shared do-nothing span returned when tracing is disabled."""

    __slots__ = ()

    def set(self, **kwargs: Any) -> None:
        pass

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


NOOP_SPAN = NoopSpan()


class Tracer:
    """Collects finished spans and foreign Chrome-trace events."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tids: Dict[int, int] = {}
        self.epoch = time.perf_counter()
        self.spans: List[Span] = []
        self.events: List[Dict[str, Any]] = []
        self._next_pid = PIPELINE_PID + 1

    # -- span plumbing -------------------------------------------------
    def span(self, name: str, **args: Any) -> SpanHandle:
        return SpanHandle(self, name, args)

    def record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tid(self) -> int:
        """Small stable per-thread id (0 = the first thread seen)."""
        ident = threading.get_ident()
        with self._lock:
            tid = self._tids.get(ident)
            if tid is None:
                tid = self._tids[ident] = len(self._tids)
            return tid

    # -- foreign events ------------------------------------------------
    def allocate_pid(self, label: str) -> int:
        """Reserve a Chrome-trace process id for a foreign timeline.

        Emits the ``process_name`` metadata event so the timeline shows
        up under ``label`` in Perfetto.
        """
        with self._lock:
            pid = self._next_pid
            self._next_pid += 1
            self.events.append({
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            })
            return pid

    def add_events(self, events: List[Dict[str, Any]]) -> None:
        """Append pre-formed Chrome-trace event dicts."""
        with self._lock:
            self.events.extend(events)

    # -- export / lifecycle --------------------------------------------
    def trace_events(self) -> List[Dict[str, Any]]:
        """Every collected event, spans first, Chrome-trace-ready.

        Empty when nothing was recorded — the pipeline process_name
        metadata is only emitted alongside actual content.
        """
        with self._lock:
            if not self.spans and not self.events:
                return []
            pipeline_meta: List[Dict[str, Any]] = [{
                "name": "process_name",
                "ph": "M",
                "pid": PIPELINE_PID,
                "tid": 0,
                "args": {"name": "repro pipeline (wall clock)"},
            }]
            return (
                pipeline_meta
                + [span.to_event() for span in self.spans]
                + list(self.events)
            )

    def reset(self) -> None:
        with self._lock:
            self.spans.clear()
            self.events.clear()
            self._tids.clear()
            self._next_pid = PIPELINE_PID + 1
            self.epoch = time.perf_counter()
        self._local = threading.local()
