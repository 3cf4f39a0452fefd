"""Golden models of the simulator's issue, event queue and routing tables.

* :class:`PerOpIssue` — operation-granularity PE issue.  Every
  operation makes a full selection scan and, on a non-ideal PE, a
  queue round-trip per issue slot, so events map 1:1 onto the hardware
  description (Sec. V-A).  :class:`repro.sim.issue.HorizonIssue` must
  be bit-identical to it (``tests/test_engine_equivalence.py``).
* :class:`HeapEventQueue` — the ``(time, seq)`` binary heap the
  calendar queue (:class:`repro.sim.events.EventQueue`) replaced.
  :class:`PerOpKernelSimulator` runs on it, so the equivalence suite
  checks the calendar queue end to end.
* :func:`flatten_multicast_forest` and :func:`tuple_keyed_tables` —
  the dict-building forms of the engine's flat multicast, reduction
  and input-count tables.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Tuple

from repro.sim.engine import KernelSimulator
from repro.sim.events import EV_MCAST, EV_PUMP, NEVER, Handler
from repro.sim.issue import HorizonIssue
from repro.sim.state import T_SAAC, T_SEND, TileState
from tests.oracles.lowering import dense_local_counts

#: One heap entry: ``(time, seq, kind, payload)``.
HeapEvent = Tuple[int, int, int, Any]

#: Flattened multicast step: children to fork to, plus the destination
#: payload (``None`` where the node is not a destination).
McastStep = Tuple[Tuple[int, ...], Any]


class HeapEventQueue:
    """A binary heap of ``(time, seq, kind, payload)`` events.

    Events at equal times pop in push order: a monotonically increasing
    sequence number is the tie-break key.
    """

    __slots__ = ("heap", "seq")

    def __init__(self) -> None:
        self.heap: List[HeapEvent] = []
        self.seq = 0

    def push(self, time: int, kind: int, payload: Any) -> None:
        heapq.heappush(self.heap, (time, self.seq, kind, payload))
        self.seq += 1

    def next_time(self, default: int = NEVER) -> int:
        heap = self.heap
        return heap[0][0] if heap else default

    def drain(self, on_pump: Handler, on_mcast: Handler,
              on_partial: Handler) -> None:
        """Pop events in ``(time, seq)`` order and dispatch on kind."""
        heap = self.heap
        pop = heapq.heappop
        while heap:
            time, _, kind, payload = pop(heap)
            if kind == EV_PUMP:
                on_pump(payload, time)
            elif kind == EV_MCAST:
                on_mcast(payload, time)
            else:
                on_partial(payload, time)


class PerOpIssue(HorizonIssue):
    """Issues one operation per pump step (non-SAAC ops are shared)."""

    def bind(self, core) -> Handler:
        self._capture(core)
        self.schedule_pump = core._schedule_pump
        return self.pump

    def _op_ready_time(self, tile: TileState, task: List) -> int:
        """Earliest cycle the task's current operation can issue."""
        kind = task[1]
        ready = task[0]
        pe_time = tile.pe_time
        if pe_time > ready:
            ready = pe_time
        if kind == T_SAAC:
            hazard = tile.acc_ready[task[2][task[5]]]
        elif kind == T_SEND:
            return ready
        else:  # T_ADD / T_MUL gate on their row's accumulator
            hazard = tile.acc_ready[task[2]]
        return hazard if hazard > ready else ready

    def pump(self, tile_id: int, now: int) -> None:
        """Issue every operation that can start at ``now``."""
        tile = self.tiles[tile_id]
        if tile.next_pump != now:
            return  # stale: a different pump is now scheduled
        tile.next_pump = None
        ideal = self.ideal
        limit = self.limit
        ready_time = self._op_ready_time
        while tile.tasks:
            tasks = tile.tasks
            window = limit if limit < len(tasks) else len(tasks)
            best_index = 0
            best_time = ready_time(tile, tasks[0])
            for index in range(1, window):
                ready = ready_time(tile, tasks[index])
                if ready < best_time:
                    best_time = ready
                    best_index = index
            if best_time > now:
                self.schedule_pump(tile_id, best_time)
                return
            self._issue_op(tile_id, tile, tasks[best_index], best_index,
                           best_time)
            if not ideal and tile.tasks:
                # One issue slot consumed; revisit at the next free cycle.
                self.schedule_pump(tile_id, tile.pe_time)
                return

    def _issue_op(self, tile_id: int, tile: TileState, task: List,
                  task_index: int, issue_time: int) -> None:
        """Execute one operation of ``task`` at ``issue_time``."""
        if task[1] != T_SAAC:
            self._issue_other(tile_id, tile, task, task_index, issue_time)
            return
        tile.busy += self.ic
        if self.trace is not None:
            self.trace.append((issue_time, tile_id, T_SAAC))
        if not self.ideal:
            tile.pe_time = issue_time + self.ic
        rows, vals, xval, pos = task[2], task[3], task[4], task[5]
        row = rows[pos]
        completion = issue_time + self.alu_latency
        tile.op_counts[T_SAAC] += 1
        tile.acc_ready[row] = completion
        tile.partial[row] += xval * vals[pos]
        task[5] = pos + 1
        if task[5] >= len(rows):
            del tile.tasks[task_index]
        local_rem = tile.local_rem
        remaining = local_rem[row] - 1
        local_rem[row] = remaining
        state = self.state
        if completion > state.end_time:
            state.end_time = completion
        if remaining == 0:
            self.on_input_done(row, tile_id, completion)


class PerOpKernelSimulator(KernelSimulator):
    """The production composition root driven by :class:`PerOpIssue`
    over the :class:`HeapEventQueue`."""

    issue_class = PerOpIssue
    queue_class = HeapEventQueue  # type: ignore[assignment]


def flatten_multicast_forest(
    program,
    payload_at: Callable[[int, int], Any],
) -> Tuple[Dict[Tuple[int, int, int], McastStep],
           Dict[Tuple[int, int], Tuple[int, Tuple[int, ...]]]]:
    """Flatten a compiled kernel's multicast forest into lookup tables.

    Returns ``(plan, send_plan)``:

    * ``plan[(j, tree_index, node)] = (children, payload)`` — the
      router-side fork at ``node`` plus, when ``node`` is a
      destination, ``payload_at(node, j)`` (``None`` elsewhere);
    * ``send_plan[(j, tree_index)] = (root, root_children)`` — the
      fork a Send op performs at the tree root.

    Children fork in sorted-edge order.
    """
    plan: Dict[Tuple[int, int, int], McastStep] = {}
    send_plan: Dict[Tuple[int, int], Tuple[int, Tuple[int, ...]]] = {}
    mcast_col = program.mcast_col.tolist()
    mcast_root = program.mcast_root.tolist()
    mcast_first = program.mcast_first
    edge_ptr = program.mcast_edge_ptr.tolist()
    parents = program.mcast_parent.tolist()
    child_arr = program.mcast_child.tolist()
    dst_ptr = program.mcast_dst_ptr.tolist()
    dsts = program.mcast_dst.tolist()
    for t in range(len(mcast_col)):
        j = mcast_col[t]
        tree_index = t - int(mcast_first[j])
        root = mcast_root[t]
        children: Dict[int, List[int]] = {}
        nodes = {root}
        for e in range(edge_ptr[t], edge_ptr[t + 1]):
            children.setdefault(parents[e], []).append(child_arr[e])
            nodes.add(child_arr[e])
            nodes.add(parents[e])
        destinations = set(dsts[dst_ptr[t]:dst_ptr[t + 1]])
        for node in nodes:
            payload = payload_at(node, j) if node in destinations else None
            plan[(j, tree_index, node)] = (
                tuple(children.get(node, ())), payload,
            )
        send_plan[(j, tree_index)] = (
            root, tuple(children.get(root, ())),
        )
    return plan, send_plan


def tuple_keyed_tables(program) -> Tuple[Dict[Tuple[int, int], int],
                                         Dict[Tuple[int, int], int]]:
    """``(node_remaining, red_parent)`` keyed ``(row, node)``.

    ``node_remaining`` holds the inputs every reduction-tree node and
    every home expects; ``red_parent`` each non-home node's next hop.
    """
    local_by_tile = dict(zip(program.local_tiles.tolist(),
                             dense_local_counts(program).tolist()))
    node_remaining: Dict[Tuple[int, int], int] = {}
    red_parent: Dict[Tuple[int, int], int] = {}
    vec_tile = program.vec_tile.tolist()
    red_index = program.red_index.tolist()
    edge_ptr = program.red_edge_ptr.tolist()
    red_child = program.red_child.tolist()
    red_parent_arr = program.red_parent.tolist()
    for i in range(program.n):
        home = vec_tile[i]
        tree = red_index[i]
        if tree < 0:
            rem = local_by_tile.get(home)
            node_remaining[(i, home)] = (
                1 if rem is not None and rem[i] > 0 else 0
            )
            continue
        children: Dict[int, int] = {}
        nodes = {home}
        for e in range(edge_ptr[tree], edge_ptr[tree + 1]):
            parent = red_parent_arr[e]
            children[parent] = children.get(parent, 0) + 1
            nodes.add(red_child[e])
            red_parent[(i, red_child[e])] = parent
        for node in nodes:
            expected = children.get(node, 0)
            rem = local_by_tile.get(node)
            if rem is not None and rem[i] > 0:
                expected += 1
            node_remaining[(i, node)] = expected
    return node_remaining, red_parent
