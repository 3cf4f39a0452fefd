"""Trace analysis: utilization timelines, tile activity, link heatmaps.

When a kernel is simulated with ``record_issue_trace=True``, every
issued operation is logged as ``(cycle, tile, op_kind)``.  These
helpers turn that log (plus the per-link counters) into the views a
hardware architect reaches for first: how busy was the machine over
time (Fig. 17's timeline), which tiles did the work, and which links
carried the traffic.

Results carry their machine's tile count (``KernelResult.n_tiles``),
so the ``n_tiles`` argument of every helper is optional — pass it only
to override, or for results unpickled from pre-v4 cache entries that
predate the field.  :func:`chrome_trace_events` converts an issue
trace into Chrome-trace events for :mod:`repro.obs`'s Perfetto export.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.dataflow.tasks import OpKind
from repro.sim.stats import KernelResult

#: Issue events kept per kernel in a Chrome trace before downsampling.
#: 10k per kernel keeps a full fig20-style sweep's trace in the tens of
#: megabytes while still showing each kernel's issue structure.
DEFAULT_EVENT_CAP = 10_000


def _require_trace(result: KernelResult):
    if result.issue_trace is None:
        raise ValueError(
            "kernel was simulated without record_issue_trace=True"
        )


def _resolve_n_tiles(result: KernelResult,
                     n_tiles: Optional[int]) -> int:
    """``n_tiles`` argument if given, else the count on the result."""
    if n_tiles is not None:
        return int(n_tiles)
    carried = getattr(result, "n_tiles", None)
    if carried is None:
        raise ValueError(
            "result carries no n_tiles (pre-v4 cache entry?); pass "
            "n_tiles explicitly"
        )
    return int(carried)


def utilization_timeline(result: KernelResult,
                         n_tiles: Optional[int] = None,
                         n_buckets: int = 20) -> np.ndarray:
    """Machine utilization per time bucket (issued ops / issue slots).

    Returns an ``n_buckets`` array in [0, 1]; the Fig. 17 view of where
    a kernel's time goes.
    """
    _require_trace(result)
    n_tiles = _resolve_n_tiles(result, n_tiles)
    if result.cycles == 0 or not result.issue_trace:
        return np.zeros(n_buckets)
    times = np.array([entry[0] for entry in result.issue_trace])
    edges = np.linspace(0, result.cycles, n_buckets + 1)
    counts, _ = np.histogram(times, bins=edges)
    slots_per_bucket = (edges[1:] - edges[:-1]) * n_tiles
    return counts / np.maximum(slots_per_bucket, 1e-12)


def tile_activity(result: KernelResult,
                  n_tiles: Optional[int] = None) -> np.ndarray:
    """Operations issued per tile (load-balance view)."""
    _require_trace(result)
    n_tiles = _resolve_n_tiles(result, n_tiles)
    activity = np.zeros(n_tiles, dtype=np.int64)
    for _, tile, _ in result.issue_trace:
        activity[tile] += 1
    return activity


def op_mix_by_tile(result: KernelResult,
                   n_tiles: Optional[int] = None) -> np.ndarray:
    """Per-tile op counts by kind, shape ``(n_tiles, 4)``
    (FMAC/Add/Mul/Send order of :class:`OpKind`)."""
    _require_trace(result)
    n_tiles = _resolve_n_tiles(result, n_tiles)
    mix = np.zeros((n_tiles, 4), dtype=np.int64)
    for _, tile, kind in result.issue_trace:
        mix[tile, kind] += 1
    return mix


def link_heatmap(result: KernelResult, geometry) -> np.ndarray:
    """Per-link activation counts arranged as a ``(n_tiles, 4)`` array.

    Column order matches ``geometry.neighbors``: the flits each tile
    sent toward each of its (up to four) neighbors.
    """
    heat = np.zeros((geometry.n_tiles, 4), dtype=np.int64)
    for (src, dst), count in result.per_link.items():
        neighbors = geometry.neighbors(src)
        for port, neighbor in enumerate(neighbors):
            if neighbor == dst:
                heat[src, port] += count
                break
    return heat


def idle_tail_fraction(result: KernelResult,
                       n_tiles: Optional[int] = None,
                       threshold: float = 0.1) -> float:
    """Fraction of the kernel's duration spent in the low-utilization
    tail (utilization below ``threshold``) — the serialization metric
    the time-balancing mapping attacks (Fig. 17)."""
    timeline = utilization_timeline(result, n_tiles, n_buckets=50)
    if len(timeline) == 0:
        return 0.0
    below = timeline < threshold
    # Count trailing low-utilization buckets.
    tail = 0
    for value in below[::-1]:
        if not value:
            break
        tail += 1
    return tail / len(timeline)


def export_trace_csv(result: KernelResult, path):
    """Write the raw issue trace as CSV (cycle, tile, op)."""
    _require_trace(result)
    names = {k.value: k.name.lower() for k in OpKind}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("cycle,tile,op\n")
        for cycle, tile, kind in result.issue_trace:
            handle.write(f"{cycle},{tile},{names[int(kind)]}\n")


def chrome_trace_events(result: KernelResult, pid: int,
                        cap: Optional[int] = DEFAULT_EVENT_CAP
                        ) -> List[Dict[str, Any]]:
    """One kernel's issue trace as Chrome-trace events.

    The kernel gets its own Chrome-trace process (``pid``, allocated
    via :func:`repro.obs.allocate_pid`) with one track per tile; the
    timestamp axis is *machine cycles* rendered as microseconds, so a
    kernel that ran for 10k cycles spans 10 ms in Perfetto.  Each
    issued op is a 1-cycle complete event; a summary event on the
    track above the tiles carries the kernel-level statistics (op
    counts, spills, link congestion).

    Dense kernels can log millions of ops; ``cap`` (``None`` = keep
    everything) stride-downsamples the events and reports how many
    were dropped in the summary event's args.
    """
    _require_trace(result)
    n_tiles = _resolve_n_tiles(result, None)
    names = {k.value: k.name.lower() for k in OpKind}
    trace = result.issue_trace
    assert trace is not None  # _require_trace checked
    kept = trace
    dropped = 0
    if cap is not None and len(trace) > cap:
        stride = -(-len(trace) // cap)  # ceil division
        kept = trace[::stride]
        dropped = len(trace) - len(kept)
    events: List[Dict[str, Any]] = [{
        "name": "summary",
        "ph": "X",
        "cat": "kernel",
        "ts": 0.0,
        "dur": float(max(result.cycles, 1)),
        "pid": pid,
        "tid": n_tiles,
        "args": {
            "kernel": result.name,
            "cycles": int(result.cycles),
            "op_counts": {k: int(v) for k, v in result.op_counts.items()},
            "busy_slots": int(result.busy_slots),
            "link_activations": int(result.link_activations),
            "link_queue_delay": int(result.link_queue_delay),
            "spills": int(result.spills),
            "issue_events": len(trace),
            "issue_events_dropped": dropped,
        },
    }]
    for cycle, tile, kind in kept:
        events.append({
            "name": names[int(kind)],
            "ph": "X",
            "cat": "issue",
            "ts": float(cycle),
            "dur": 1.0,
            "pid": pid,
            "tid": int(tile),
        })
    return events
