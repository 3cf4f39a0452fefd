"""Event core: calendar queue, deterministic tie-breaking, drain loop.

The bottom layer of the simulator core (``events ← fabric ← issue ←
engine``).  The issue layer and the fabric push into one
:class:`EventQueue`.  Simulated time is an integer cycle count, so the
queue is a calendar (Brown, CACM 1988): one FIFO bucket per pending
cycle plus a min-heap of those cycles.  Events at equal cycles
dispatch in push order, which is exactly ``(time, sequence)`` order —
the determinism the bit-identity suite
(``tests/test_engine_equivalence.py``) relies on.

This module must not import anything else from :mod:`repro.sim`
(enforced by ``tools/check_layers.py``).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Tuple

# Event kinds (bucket entries are ``(kind, payload)``).
EV_PUMP = 0      #: a tile's PE may be able to issue an operation
EV_MCAST = 1     #: multicast value arriving over a tree edge
EV_PARTIAL = 2   #: reduction partial arriving at a tree node

#: Sentinel "never" time (must exceed any reachable cycle count).
NEVER = 1 << 62

#: One popped event: ``(time, kind, payload)``.
Event = Tuple[int, int, Any]

#: Event handler: ``handler(payload, time)``.
Handler = Callable[[Any, int], None]


class EventQueue:
    """A calendar queue of integer-cycle events.

    ``buckets[t]`` holds the events due at cycle ``t`` in push order;
    ``cycles`` is a min-heap with one entry per bucket not yet opened.
    :meth:`drain` takes the earliest cycle off the heap and empties its
    bucket front to back, including events pushed at that same cycle
    while it drains, before it opens the next one.  So events at equal
    times dispatch in push order: the ``(time, seq)`` order of a binary
    heap with a push counter, without the counter.

    No handler pushes below the cycle being drained: every latency
    (ALU, SRAM, hop) is at least one cycle, and pumps are only ever
    scheduled at or after the current time.

    ``current`` is the bucket being drained (empty outside
    :meth:`drain`); hot loops read the issue horizon from it and
    ``cycles`` without a method call (see :meth:`next_time`).
    """

    __slots__ = ("buckets", "cycles", "current", "time")

    def __init__(self) -> None:
        self.buckets: Dict[int, Deque[Tuple[int, Any]]] = {}
        self.cycles: List[int] = []
        self.current: Deque[Tuple[int, Any]] = deque()
        #: Cycle of :attr:`current`.
        self.time = 0

    def push(self, time: int, kind: int, payload: Any) -> None:
        """Schedule ``(kind, payload)`` at cycle ``time``."""
        bucket = self.buckets.get(time)
        if bucket is None:
            self.buckets[time] = deque(((kind, payload),))
            heapq.heappush(self.cycles, time)
        else:
            bucket.append((kind, payload))

    def pop(self) -> Event:
        """Remove and return the earliest event (outside :meth:`drain`)."""
        time = self.cycles[0]
        bucket = self.buckets[time]
        kind, payload = bucket.popleft()
        if not bucket:
            heapq.heappop(self.cycles)
            del self.buckets[time]
        return time, kind, payload

    def next_time(self, default: int = NEVER) -> int:
        """Cycle of the earliest pending event (the issue *horizon*).

        While :meth:`drain` is emptying a bucket that still holds
        events, that is the bucket's own cycle; otherwise the earliest
        cycle on the heap.
        """
        if self.current:
            return self.time
        cycles = self.cycles
        return cycles[0] if cycles else default

    def __len__(self) -> int:
        return sum(map(len, self.buckets.values()))

    def __bool__(self) -> bool:
        return bool(self.cycles) or bool(self.current)

    def drain(self, on_pump: Handler, on_mcast: Handler,
              on_partial: Handler) -> None:
        """Run the event loop to exhaustion.

        The simulator's single drain loop: dispatches events in
        ``(time, push order)`` and on kind.  Handlers receive
        ``(payload, time)``; stale-pump filtering is the pump handler's
        responsibility (a tile has at most one *live* pump, deduplicated
        via ``TileState.next_pump``).
        """
        buckets = self.buckets
        cycles = self.cycles
        next_cycle = heapq.heappop
        while cycles:
            time = self.time = next_cycle(cycles)
            bucket = self.current = buckets[time]
            popleft = bucket.popleft
            while bucket:
                kind, payload = popleft()
                if kind == EV_PUMP:
                    on_pump(payload, time)
                elif kind == EV_MCAST:
                    on_mcast(payload, time)
                else:
                    on_partial(payload, time)
            del buckets[time]
