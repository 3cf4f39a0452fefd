"""PE issue layer: pipeline, RAW-hazard, and thread-context timing.

:class:`BatchedIssue` decides *when* each FMAC/ADD/MUL/SEND leaves a
PE.  It works at run granularity: a ``T_SAAC`` column-segment run is
issued as one batched step whose per-op issue times are computed
analytically (numpy for long runs), bounded by an exactness *horizon*
(the earliest pending event of the calendar queue) so cycles, op
counts, link stats, spills, and outputs stay bit-identical to the
operation-granularity model of the hardware description (Sec. V-A),
in which every operation is one selection scan plus one issue.  That
per-op model is kept as a test oracle and the equivalence is enforced
by ``tests/test_engine_equivalence.py``.

The issue model is bound per run to the composition root (duck-typed
as :class:`IssueCore`), which supplies the shared state, event queue,
fabric, routing tables, and completion callbacks.

Layer contract: ``issue`` may import ``events``/``state``/``fabric``
but never the engine composition root.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Protocol, Tuple

import numpy as np

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
    T_SAAC,
    T_SEND,
    KernelState,
    TileState,
)

#: Remaining-run length at which a batch switches from the scalar
#: recurrence to the numpy closed form.
VEC_THRESHOLD = 12


class IssueCore(Protocol):
    """What :class:`BatchedIssue` needs from the composition root."""

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


class BatchedIssue:
    """Run-granularity issue: batches column-segment runs exactly.

    ``bind`` captures per-run references from the composition root and
    returns the PUMP handler ``pump(tile_id, now)``, which services one
    PUMP event (including the stale-pump filter).  No state survives
    across runs.

    Exactness argument (mirrored by ``tests/test_engine_equivalence.py``):

    * **Horizon** ``h`` — the earliest pending event: the current cycle
      while the calendar bucket being drained still holds events, else
      the earliest pending cycle.  While the next issue time is
      strictly below ``h`` no external event (message arrival, other
      tile's pump) could have interposed in the per-op model, so the
      pump keeps going inline instead of bouncing through the queue.
      Ideal PEs additionally issue everything ready at the current pump
      time regardless of the queue, exactly like the per-op loop.
    * **Window competition** — a batched SAAC run continues only while
      its next op's issue time stays strictly below every *other*
      window task's hazard floor ``max(task_time, acc_ready[row])``.
      Accumulator-ready times only grow, so floors computed at batch
      start remain valid; ties conservatively end the batch and defer
      to the exact selection scan.
    * **Triggers** — the first op whose last local contribution lands
      (``local_rem`` hits zero) ends the batch, because its
      input-done side effect can enqueue work and push events.
    * **Numerics** — rows within a run are distinct, so the vectorized
      ``partial[rows] += xval * vals`` performs the identical IEEE-754
      operations in the identical order as per-op issue.
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
        saac_batch = self._saac_batch

        def pump(tile_id: int, now: int) -> None:
            """Horizon-bounded pump: drains inline while no event intervenes.

            The single-op SAAC issue (the dominant case once the machine
            is saturated and batches are horizon-bounded) is fully
            inlined here; runs that can batch further go through
            ``_saac_batch``.
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
                    # Probe whether a second run op could join the
                    # batch; if so, defer to the multi-op planner.  The
                    # horizon blocks extension in the vast majority of
                    # pumps, so the hazard floor of the losing window
                    # tasks (``other_floor``) is only computed once the
                    # cheap horizon gate has already passed.
                    if not trigger and p1 < len(rows):
                        t0 = task[0]
                        ready2 = acc[rows[p1]]
                        if t0 > ready2:
                            ready2 = t0
                        if ideal:
                            t1 = ready2
                            gate = ready2 <= now or ready2 < h
                        else:
                            t1 = best_time + ic
                            if ready2 > t1:
                                t1 = ready2
                            gate = t1 < h
                        if gate:
                            other_floor = NEVER
                            k = 0
                            for task2 in (tasks if window == n_tasks
                                          else tasks[:window]):
                                if k != best_index:
                                    m = acc[task2[6]]
                                    t = task2[0]
                                    if t > m:
                                        m = t
                                    if m < other_floor:
                                        other_floor = m
                                k += 1
                            if t1 < other_floor:
                                now = saac_batch(
                                    tile_id, tile, task, best_index,
                                    best_time, other_floor, h, now, t1,
                                )
                                if now < 0:
                                    return
                                continue
                    # -- single-op issue, fully inline -----------------
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
    def _saac_batch(self, tile_id: int, tile: TileState, task: List,
                    task_index: int, best_time: int, other_floor: int,
                    h: int, now: int, t1: int) -> int:
        """Issue a multi-op batch of one SAAC run (exactness-bounded).

        Only called once ``pump``'s probe established that the run's
        second op (issuing at ``t1``) can join the batch, so ``count``
        is always at least 2.  Returns the pump's new ``now``
        (non-negative) to continue inline, or ``-1`` when the pump
        must yield to the queue.
        """
        ic = self.ic
        ideal = self.ideal
        alu = self.alu_latency
        state = self.state
        acc = tile.acc_ready
        partial = tile.partial
        local_rem = tile.local_rem
        rows = task[2]
        vals = task[3]
        xval = task[4]
        pos = task[5]
        n_run = len(rows)
        t0 = task[0]
        p1 = pos + 1
        running = now

        if n_run - pos >= VEC_THRESHOLD:
            count, times, running = self._plan_batch_vectorized(
                acc, local_rem, rows, pos, t0, best_time,
                other_floor, h, now,
            )
            trigger = local_rem[rows[pos + count - 1]] == 1
            last_t = times[count - 1]
            comp_max = max(times) + alu
        else:
            t_next = t1
            if ideal and t_next > running:
                running = t_next
            times = [best_time, t_next]
            cur = t_next
            trigger = local_rem[rows[p1]] == 1
            p = p1 + 1
            while p < n_run and not trigger:
                row = rows[p]
                ready = acc[row]
                if t0 > ready:
                    ready = t0
                if ideal:
                    t_next = ready
                    if t_next >= other_floor or (
                        t_next > running and t_next >= h
                    ):
                        break
                    if t_next > running:
                        running = t_next
                else:
                    floor = cur + ic
                    t_next = ready if ready > floor else floor
                    if t_next >= other_floor or t_next >= h:
                        break
                times.append(t_next)
                cur = t_next
                p += 1
                if local_rem[row] == 1:
                    trigger = True
                    break
            count = len(times)
            last_t = cur
            comp_max = max(times) + alu

        end = pos + count
        # Vectorized numeric contribution: the per-op products are one
        # array multiply; rows within a run are distinct, so the
        # scatter applies the identical IEEE-754 adds in the identical
        # order as per-op issue.
        contrib = (
            xval * np.asarray(vals[pos:end], dtype=np.float64)
        ).tolist()
        for k in range(count):
            r = rows[pos + k]
            acc[r] = times[k] + alu
            partial[r] += contrib[k]
            local_rem[r] -= 1
        tile.op_counts[0] += count
        tile.busy += ic * count
        if self.trace is not None:
            trace = self.trace
            for k in range(count):
                trace.append((times[k], tile_id, T_SAAC))
        if not ideal:
            tile.pe_time = last_t + ic
        elif running > now:
            # An in-batch fast-forward: the per-op model pushed a pump
            # at the hop time and popped it back, clearing
            # ``next_pump``.  Mirror that before the trigger's side
            # effects reschedule.
            tile.next_pump = None
        if comp_max > state.end_time:
            state.end_time = comp_max

        if end >= n_run:
            del tile.tasks[task_index]
        else:
            task[5] = end
            task[6] = rows[end]

        if trigger:
            self.on_input_done(rows[end - 1], tile_id, last_t + alu)

        if ideal:
            return running
        pe_time = tile.pe_time
        if not tile.tasks:
            return pe_time  # pump loop exits without scheduling
        events = self.events
        if events.next_time() <= pe_time:
            nxt = tile.next_pump
            if nxt is None or pe_time < nxt:
                tile.next_pump = pe_time
                events.push(pe_time, EV_PUMP, tile_id)
            return -1
        tile.next_pump = None
        return pe_time

    def _plan_batch_vectorized(self, acc: List[int],
                               local_rem: List[int], rows: List[int],
                               pos: int, t0: int, best_time: int,
                               other_floor: int, h: int,
                               now: int) -> Tuple[int, List[int], int]:
        """Closed-form issue times for a long run tail (numpy path).

        Solves the recurrence ``t_k = max(ready_k, t_{k-1} + ic)``
        (non-ideal) or ``t_k = ready_k`` (ideal) for the whole
        remaining run, then truncates at the first op violating the
        horizon/window bounds or landing a trigger.
        Returns ``(count, times_list, running_now)``.
        """
        ic = self.ic
        tail = rows[pos:]
        length = len(tail)
        ready = np.fromiter(
            (acc[r] for r in tail), dtype=np.int64, count=length,
        )
        np.maximum(ready, t0, out=ready)
        if self.ideal:
            t_all = ready
            t_all[0] = best_time
            runmax = np.maximum.accumulate(t_all)
            prior = np.empty(length, dtype=np.int64)
            prior[0] = now
            np.maximum(runmax[:-1], now, out=prior[1:])
            ok = (t_all < other_floor) & ((t_all <= prior) | (t_all < h))
        else:
            steps = ic * np.arange(length, dtype=np.int64)
            shifted = ready - steps
            shifted[0] = best_time
            t_all = np.maximum.accumulate(shifted) + steps
            bound = other_floor if other_floor < h else h
            ok = t_all < bound
        ok[0] = True
        bad = np.nonzero(~ok)[0]
        count = int(bad[0]) if len(bad) else length
        # Truncate at (and include) the first trigger op.
        for k in range(count):
            if local_rem[tail[k]] == 1:
                count = k + 1
                break
        times = t_all[:count].tolist()
        if self.ideal:
            running = max(times)
            if now > running:
                running = now
        else:
            running = times[-1]
        return count, times, running

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
