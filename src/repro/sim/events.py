"""Event core: calendar queue, deterministic tie-breaking, drain loop.

The bottom layer of the simulator core (``events ← fabric ← issue ←
engine``).  The issue layer and the fabric push into one
:class:`EventQueue`; ordering is a strict weak order on
``(time, sequence)`` so simultaneous events always replay in push
order — the determinism the bit-identity suite
(``tests/test_engine_equivalence.py``) relies on.

This module must not import anything else from :mod:`repro.sim`
(enforced by ``tools/check_layers.py``).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Tuple

# Event kinds (heap entries are ``(time, seq, kind, payload)``).
EV_PUMP = 0      #: a tile's PE may be able to issue an operation
EV_MCAST = 1     #: multicast value arriving at a tree node
EV_PARTIAL = 2   #: reduction partial arriving at a tree node

#: Sentinel "never" time (must exceed any reachable cycle count).
NEVER = 1 << 62

#: One scheduled event.
Event = Tuple[int, int, int, Any]

#: Event handler: ``handler(payload, time)``.
Handler = Callable[[Any, int], None]


class EventQueue:
    """A binary-heap calendar queue with deterministic tie-breaking.

    Events at equal times pop in push order (a monotonically increasing
    sequence number is the tie-break key), which makes every simulation
    replayable bit-for-bit.  The backing ``heap`` list is exposed so
    hot loops can peek the horizon (``heap[0][0]``) without a method
    call; mutation must go through :meth:`push`.
    """

    __slots__ = ("heap", "seq")

    def __init__(self) -> None:
        self.heap: List[Event] = []
        self.seq: int = 0

    def push(self, time: int, kind: int, payload: Any) -> None:
        """Schedule ``(kind, payload)`` at ``time``."""
        heapq.heappush(self.heap, (time, self.seq, kind, payload))
        self.seq += 1

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        return heapq.heappop(self.heap)

    def next_time(self, default: int = NEVER) -> int:
        """Time of the earliest pending event (the batching *horizon*)."""
        heap = self.heap
        return heap[0][0] if heap else default

    def __len__(self) -> int:
        return len(self.heap)

    def __bool__(self) -> bool:
        return bool(self.heap)


def drain(queue: EventQueue, on_pump: Handler, on_mcast: Handler,
          on_partial: Handler) -> None:
    """Run the event loop to exhaustion.

    The simulator's single drain loop: pops events in
    ``(time, seq)`` order and dispatches on kind.  Handlers receive
    ``(payload, time)``; stale-pump filtering is the pump handler's
    responsibility (a tile has at most one *live* pump, deduplicated
    via ``TileState.next_pump``).
    """
    heap = queue.heap
    pop = heapq.heappop
    while heap:
        time, _, kind, payload = pop(heap)
        if kind == EV_PUMP:
            on_pump(payload, time)
        elif kind == EV_MCAST:
            on_mcast(payload, time)
        else:
            on_partial(payload, time)
