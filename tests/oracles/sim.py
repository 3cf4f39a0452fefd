"""Operation-granularity PE issue: the simulator's golden issue model.

Every operation makes a full selection scan and, on a non-ideal PE, a
heap round-trip per issue slot, so events map 1:1 onto the hardware
description (Sec. V-A).  :class:`repro.sim.issue.BatchedIssue` must be
bit-identical to it (``tests/test_engine_equivalence.py``).
"""

from __future__ import annotations

from typing import List

from repro.sim.engine import KernelSimulator
from repro.sim.issue import BatchedIssue
from repro.sim.state import T_SAAC, T_SEND, TileState


class PerOpIssue(BatchedIssue):
    """Issues one operation per pump step (non-SAAC ops are shared)."""

    def bind(self, core) -> None:
        super().bind(core)
        self.schedule_pump = core._schedule_pump

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
    """The production composition root driven by :class:`PerOpIssue`."""

    issue_class = PerOpIssue
