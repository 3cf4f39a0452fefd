"""PE issue layer: pipeline, RAW-hazard, and thread-context timing.

:class:`HorizonIssue` decides *when* each FMAC/ADD/MUL/SEND leaves a
PE.  It issues one operation per selection scan, exactly as the
operation-granularity model of the hardware description (Sec. V-A),
but keeps pumping inline instead of bouncing through the event queue
while its next issue time stays below the exactness *horizon* (the
earliest pending event of the calendar queue), so cycles, op counts,
link stats, spills, and outputs stay bit-identical to that model.
The per-op model is kept as a test oracle and the equivalence is
enforced by ``tests/test_engine_equivalence.py``.

The issue model is bound per run to the composition root (duck-typed
as :class:`IssueCore`), which supplies the shared state, event queue,
fabric, routing tables, and completion callbacks.

Layer contract: ``issue`` may import ``events``/``state``/``fabric``
but never the engine composition root.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Protocol, Tuple

from repro.sim.events import (
    EV_MCAST,
    EV_PARTIAL,
    EV_PUMP,
    NEVER,
    EventQueue,
    Handler,
)
from repro.sim.fabric import LinkFabric
from repro.sim.state import (
    T_ADD,
    T_MUL,
    T_SEND,
    KernelState,
    TileState,
)


class IssueCore(Protocol):
    """What :class:`HorizonIssue` needs from the composition root."""

    state: KernelState
    events: EventQueue
    fabric: LinkFabric
    n_tiles: int
    alu_latency: int
    send_latency: int
    issue_trace: Optional[List[Tuple[int, int, int]]]
    #: Integer link key per multicast edge, and each tree's root-edge
    #: range (see :class:`repro.sim.fabric.MulticastForks`).
    mcast_link: List[int]
    root_lo: List[int]
    root_hi: List[int]

    @property
    def pe(self) -> Any: ...
    def _node_input_done(self, row: int, node: int, time: int) -> None: ...
    def _solve_row(self, row: int, home: int, completion: int) -> None: ...


class HorizonIssue:
    """Per-op issue, pumped inline up to the event horizon.

    ``bind`` captures per-run references from the composition root and
    returns the PUMP handler ``pump(tile_id, now)``, which services one
    PUMP event (including the stale-pump filter).  No state survives
    across runs.

    Exactness argument (mirrored by ``tests/test_engine_equivalence.py``):
    every operation is chosen by the per-op model's selection scan and
    issued with its side effects, so only the queue round-trips differ.

    * **Horizon** ``h`` — the earliest pending event: the current cycle
      while the calendar bucket being drained still holds events, else
      the earliest pending cycle.  While the next issue time is
      strictly below ``h`` no external event (message arrival, other
      tile's pump) could have interposed in the per-op model, so the
      pump keeps going inline instead of pushing a pump event and
      popping it straight back.  Ideal PEs additionally issue
      everything ready at the current pump time regardless of the
      queue, exactly like the per-op loop.
    """

    def _capture(self, core: IssueCore) -> None:
        """Capture the per-run references every issue path reads."""
        pe = core.pe
        self.ic: int = pe.issue_cycles
        self.ideal: bool = pe.is_ideal
        self.limit: int = pe.thread_contexts if pe.multithreaded else 1
        self.alu_latency: int = core.alu_latency
        self.send_latency: int = core.send_latency
        self.state = core.state
        self.tiles = core.state.tiles
        self.events = core.events
        self.traverse = core.fabric.traverse
        self.n_tiles = core.n_tiles
        self.trace = core.issue_trace
        self.mcast_link = core.mcast_link
        self.root_lo = core.root_lo
        self.root_hi = core.root_hi
        self.on_input_done: Callable[[int, int, int], None] = \
            core._node_input_done
        self.on_solve: Callable[[int, int, int], None] = core._solve_row

    def bind(self, core: IssueCore) -> Handler:
        """Capture per-run references; return the PUMP handler.

        The handler is a closure over the run's constants (PE model,
        latencies, state, calendar, callbacks), so servicing a pump
        reads them as cell variables instead of attributes.
        """
        self._capture(core)
        ideal = self.ideal
        limit = self.limit
        ic = self.ic
        alu = self.alu_latency
        state = self.state
        tiles = self.tiles
        events = self.events
        cycles = events.cycles
        push = events.push
        trace = self.trace
        on_input_done = self.on_input_done
        issue_other = self._issue_other

        def pump(tile_id: int, now: int) -> None:
            """Horizon-bounded pump: drains inline while no event intervenes.

            SAAC issue, the dominant case, is fully inlined here.
            """
            tile = tiles[tile_id]
            if tile.next_pump != now:
                return  # stale: a different pump is now scheduled
            tile.next_pump = None
            # The calendar bucket of this cycle: while it still holds
            # events, they are the earliest pending ones.
            current = events.current
            cycle = now
            acc = tile.acc_ready
            tasks = tile.tasks
            partial = tile.partial
            local_rem = tile.local_rem
            op_counts = tile.op_counts
            while True:
                n_tasks = len(tasks)
                if not n_tasks:
                    return
                h = (cycle if current
                     else cycles[0] if cycles else NEVER)
                window = limit if limit < n_tasks else n_tasks
                # Inline selection, identical to the per-op scan: the
                # winner is the first strict minimum of
                # ``ready = max(arrival, acc hazard, pe_time)``.  Ties go
                # to the lowest index, so the first task whose hazard
                # floor is at or below ``pe_time`` wins outright
                # (``ready`` cannot drop below ``pe_time``) and the scan
                # short-circuits.
                pe_time = tile.pe_time
                best_index = 0
                best_ready = NEVER
                index = 0
                for task in tasks if window == n_tasks else tasks[:window]:
                    # Branch-free hazard read: slot ``TASK_HAZARD``
                    # always names the row whose accumulator gates the
                    # task's current op (Sends name the dummy row, stuck
                    # at 0).
                    m = acc[task[6]]
                    t = task[0]
                    if t > m:
                        m = t
                    if m <= pe_time:
                        best_index = index
                        best_ready = pe_time
                        break
                    if m < best_ready:
                        best_ready = m
                        best_index = index
                    index += 1
                best_time = best_ready
                if best_time > now:
                    if best_time >= h:
                        # An event at or before best_time could change
                        # the picture: yield to the queue (per-op
                        # order).
                        nxt = tile.next_pump
                        if nxt is None or best_time < nxt:
                            tile.next_pump = best_time
                            push(best_time, EV_PUMP, tile_id)
                        return
                    # Fast-forward: nothing can intervene.  The per-op
                    # model would push a pump at best_time and pop it
                    # straight back (clearing ``next_pump``); mirror
                    # that.
                    now = best_time
                    tile.next_pump = None
                task = tasks[best_index]
                if task[1] == 0:  # T_SAAC
                    rows = task[2]
                    pos = task[5]
                    row0 = rows[pos]
                    trigger = local_rem[row0] == 1
                    p1 = pos + 1
                    completion = best_time + alu
                    acc[row0] = completion
                    partial[row0] += task[4] * task[3][pos]
                    local_rem[row0] -= 1
                    op_counts[0] += 1
                    tile.busy += ic
                    if trace is not None:
                        trace.append((best_time, tile_id, 0))
                    if p1 >= len(rows):
                        del tasks[best_index]
                    else:
                        task[5] = p1
                        task[6] = rows[p1]
                    if not ideal:
                        pe_time = best_time + ic
                        tile.pe_time = pe_time
                    if completion > state.end_time:
                        state.end_time = completion
                    if trigger:
                        on_input_done(row0, tile_id, completion)
                    if ideal:
                        # The per-op ideal pump keeps draining within
                        # one invocation.
                        continue
                else:
                    issue_other(tile_id, tile, task, best_index, best_time)
                    if ideal:
                        # The per-op ideal pump keeps draining within
                        # one invocation (no queue round-trip, no
                        # next_pump churn).
                        continue
                    pe_time = tile.pe_time
                if not tasks:
                    # The per-op loop exits without scheduling.
                    return
                if (cycle if current
                        else cycles[0] if cycles else NEVER) <= pe_time:
                    nxt = tile.next_pump
                    if nxt is None or pe_time < nxt:
                        tile.next_pump = pe_time
                        push(pe_time, EV_PUMP, tile_id)
                    return
                # The per-op model would push a pump at pe_time and pop
                # it right back (strictly before any event): continue
                # inline with the same ``next_pump = None`` state.
                tile.next_pump = None
                now = pe_time

        return pump

    # ------------------------------------------------------------------
    def _issue_other(self, tile_id: int, tile: TileState, task: List,
                     task_index: int, issue_time: int) -> None:
        """Issue one non-SAAC operation (ADD, MUL or SEND)."""
        kind = task[1]
        ic = self.ic
        tile.busy += ic
        if self.trace is not None:
            self.trace.append((issue_time, tile_id, kind))
        if not self.ideal:
            tile.pe_time = issue_time + ic
        state = self.state
        if kind == T_ADD:
            row = task[2]
            completion = issue_time + self.alu_latency
            tile.op_counts[T_ADD] += 1
            tile.acc_ready[row] = completion
            tile.partial[row] += task[3]
            del tile.tasks[task_index]
            if completion > state.end_time:
                state.end_time = completion
            self.on_input_done(row, tile_id, completion)
        elif kind == T_MUL:
            row = task[2]
            completion = issue_time + self.alu_latency
            tile.op_counts[T_MUL] += 1
            del tile.tasks[task_index]
            if completion > state.end_time:
                state.end_time = completion
            self.on_solve(row, tile_id, completion)
        else:  # T_SEND
            payload = task[2]
            completion = issue_time + self.send_latency
            tile.op_counts[T_SEND] += 1
            del tile.tasks[task_index]
            if completion > state.end_time:
                state.end_time = completion
            if payload[0] == "mcast":
                _, tree, value = payload
                traverse = self.traverse
                link = self.mcast_link
                for edge in range(self.root_lo[tree], self.root_hi[tree]):
                    traverse(link[edge], completion, EV_MCAST,
                             (edge, value))
            else:
                _, row, value, parent = payload
                self.traverse(tile_id * self.n_tiles + parent, completion,
                              EV_PARTIAL, (parent, row, value))
