"""Chrome-trace export of a kernel's issue trace.

When a kernel is simulated with ``record_issue_trace=True``, every
issued operation is logged as ``(cycle, tile, op_kind)``.
:func:`chrome_trace_events` converts that log into Chrome-trace events
for :mod:`repro.obs`'s Perfetto export, one track per tile of the
machine the result carries (``KernelResult.n_tiles``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.sim.state import OP_NAMES
from repro.sim.stats import KernelResult

#: Issue events kept per kernel in a Chrome trace before downsampling.
#: 10k per kernel keeps a full fig20-style sweep's trace in the tens of
#: megabytes while still showing each kernel's issue structure.
DEFAULT_EVENT_CAP = 10_000


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
    trace = result.issue_trace
    if trace is None:
        raise ValueError(
            "kernel was simulated without record_issue_trace=True"
        )
    if result.n_tiles is None:
        raise ValueError("result carries no n_tiles")
    n_tiles = int(result.n_tiles)
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
            "name": OP_NAMES[int(kind)],
            "ph": "X",
            "cat": "issue",
            "ts": float(cycle),
            "dur": 1.0,
            "pid": pid,
            "tid": int(tile),
        })
    return events
