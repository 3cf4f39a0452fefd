"""Discrete-event kernel simulator: the layer composition root.

Executes one :class:`~repro.dataflow.ir.CompiledKernel`
cycle-accurately *and* numerically.  :class:`KernelSimulator` composes
the simulator layers (``events ← state ← fabric ← issue``, see
:mod:`repro.sim` and ``docs/simulator.md``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.config import AzulConfig
from repro.dataflow.ir import CompiledKernel
from repro.errors import SimulationError
from repro.sim.events import EV_MCAST, EV_PUMP, EventQueue
from repro.sim.fabric import LinkFabric, multicast_forks
from repro.sim.issue import HorizonIssue
from repro.sim.pe import PEModel
from repro.sim.state import (
    OP_NAMES,
    T_ADD,
    T_MUL,
    T_SAAC,
    T_SEND,
    KernelState,
    input_counts,
)
from repro.sim.stats import KernelResult


def _segment_bounds(program: CompiledKernel, keys: np.ndarray,
                    mask: Optional[np.ndarray] = None
                    ) -> Tuple[List[int], List[int]]:
    """``rows``/``values`` bounds of the segment with each key.

    Keys are ``tile · n + col``.  Segments are sorted by (tile, col), so
    their keys are sorted and one binary search finds each.  A key with
    no segment, or masked out, gets ``lo = hi = -1``.
    """
    n = program.n
    seg_key = np.append(program.seg_tile * n + program.seg_col,
                        np.iinfo(np.int64).max)
    slot = np.searchsorted(seg_key, keys)
    found = seg_key[slot] == keys
    if mask is not None:
        found &= mask
    ptr = program.seg_ptr
    lo = np.where(found, ptr[slot], -1)
    hi = np.where(found, ptr[np.minimum(slot + 1, len(ptr) - 1)], -1)
    return lo.tolist(), hi.tolist()


class KernelSimulator:
    """Simulates one kernel program on the configured machine."""

    #: Issue model and event queue, instantiated once per run.  The
    #: issue model holds this simulator's callbacks, so the simulator
    #: keeps no reference to it: nothing forms a reference cycle, and
    #: a finished simulator is freed as soon as its caller drops it.
    issue_class = HorizonIssue
    queue_class = EventQueue

    def __init__(self, program: CompiledKernel, geometry,
                 config: AzulConfig, pe: PEModel,
                 record_issue_trace: bool = False):
        self.program = program
        self.geometry = geometry
        self.config = config
        self.pe = pe
        self.record_issue_trace = record_issue_trace
        self.alu_latency = (
            config.sram_access_cycles + config.fmac_latency_cycles
        )
        self.send_latency = config.sram_access_cycles + 1
        self._ideal = pe.is_ideal
        # Flat static tables, built once per simulator straight from
        # the program's IR arrays.  Every per-event lookup is a list
        # index or an integer-keyed dict probe.
        n = program.n
        n_tiles = self.n_tiles = geometry.n_tiles
        # Column nonzeros as plain Python lists: a triggered segment is
        # a slice of them, so scalar ``rows[pos]`` / ``vals[pos]`` reads
        # are native ints/floats.  ``tolist`` preserves the exact
        # IEEE-754 values.
        self._rows = program.rows.tolist()
        self._vals = program.values.tolist()
        forks = multicast_forks(program, n_tiles)
        #: Home segment bounds per column (-1: the home holds none).
        self._home_lo, self._home_hi = _segment_bounds(
            program, program.vec_tile * n + np.arange(n, dtype=np.int64),
        )
        #: Bounds of the segment a multicast arrival over edge ``e``
        #: triggers at the edge's child (-1 unless the child is a
        #: destination holding a segment of the tree's column).
        self._edge_lo, self._edge_hi = _segment_bounds(
            program, program.mcast_child * n + program.mcast_col[forks.tree],
            forks.delivers,
        )
        self._edge_child = program.mcast_child.tolist()
        self.mcast_link = forks.link.tolist()
        self._fork_lo = forks.fork_lo.tolist()
        self._fork_hi = forks.fork_hi.tolist()
        self.root_lo = forks.root_lo.tolist()
        self.root_hi = forks.root_hi.tolist()
        self._mcast_first = program.mcast_first.tolist()
        #: Multicast trees per column (0 for home-only columns).
        self._mcast_count = program.mcast_count.tolist()
        # Reduction next hop per ``row · n_tiles + node``.
        edge_row = np.repeat(program.red_row, np.diff(program.red_edge_ptr))
        self._red_parent = dict(zip(
            (edge_row * n_tiles + program.red_child).tolist(),
            program.red_parent.tolist(),
        ))
        self._input_counts = input_counts(program, n_tiles)
        self._vec_tile_list = program.vec_tile.tolist()
        # Dummy hazard row (see ``state.TASK_HAZARD``): Sends gate on
        # nothing, so they point at accumulator slot ``n`` which stays
        # 0 forever.
        self._dummy_row = int(n)

    # ------------------------------------------------------------------
    def run(self, x=None, b=None) -> KernelResult:
        """Execute the kernel; returns timing, stats, and the output.

        ``x`` is the input vector for SpMV; ``b`` the right-hand side
        for SpTRSV.
        """
        program = self.program
        n = program.n
        config = self.config
        self.events = self.queue_class()
        self.state = KernelState(
            program, config.msg_buffer_entries,
            2 * config.sram_access_cycles,
        )
        self.state.node_remaining = dict(self._input_counts)
        self.fabric = LinkFabric(self.events, config.hop_cycles,
                                 self.n_tiles)
        self.issue_trace = [] if self.record_issue_trace else None
        self._b = None if b is None else np.asarray(b, dtype=np.float64)
        self._x = (
            np.asarray(x, dtype=np.float64) if x is not None
            else np.zeros(n)
        )
        pump = self.issue_class().bind(self)

        if program.dependent:
            if self._b is None:
                raise SimulationError("SpTRSV simulation requires b")
            self._init_sptrsv()
        else:
            if x is None:
                raise SimulationError("SpMV simulation requires x")
            self._init_spmv()

        self.events.drain(pump, self._handle_mcast, self._handle_partial)

        state = self.state
        if state.rows_done != n:
            raise SimulationError(
                f"{program.name}: deadlock — only {state.rows_done}/{n} "
                "rows completed"
            )
        op_totals, busy = state.op_totals()
        fabric = self.fabric
        last_arrival = fabric.last_arrival()
        link_ids, link_counts = fabric.link_arrays()
        cycles = (
            state.end_time if state.end_time >= last_arrival
            else last_arrival
        )
        return KernelResult(
            name=program.name,
            cycles=cycles,
            output=state.output,
            op_counts=dict(zip(OP_NAMES, op_totals)),
            busy_slots=busy,
            link_activations=fabric.link_count(),
            link_ids=link_ids,
            link_counts=link_counts,
            spills=state.spills,
            link_queue_delay=fabric.queue_delay,
            issue_trace=self.issue_trace,
            n_tiles=self.n_tiles,
        )

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------
    def _init_spmv(self) -> None:
        """Distribute input-vector values at time zero (SendV tasks)."""
        n_tiles = self.n_tiles
        vec_tile = self._vec_tile_list
        all_rows = self._rows
        all_vals = self._vals
        home_lo = self._home_lo
        home_hi = self._home_hi
        mcast_first = self._mcast_first
        mcast_count = self._mcast_count
        enqueue = self._enqueue_and_pump
        dummy = self._dummy_row
        x = self._x.tolist()
        for j, home in enumerate(vec_tile):
            value = x[j]
            lo = home_lo[j]
            if lo >= 0:
                hi = home_hi[j]
                enqueue(home, [0, T_SAAC, all_rows[lo:hi], all_vals[lo:hi],
                               value, 0, all_rows[lo]], 0)
            first = mcast_first[j]
            for tree in range(first, first + mcast_count[j]):
                enqueue(home, [0, T_SEND, ("mcast", tree, value),
                               0, 0, 0, dummy], 0)
        # Rows with no pending inputs complete immediately (y_i = 0 or
        # purely-local rows start from their FMACs).
        node_remaining = self.state.node_remaining
        for i, home in enumerate(vec_tile):
            if node_remaining[i * n_tiles + home] == 0:
                self._row_complete(i, 0)

    def _init_sptrsv(self) -> None:
        """Schedule dependence-free rows for solving at time zero."""
        n_tiles = self.n_tiles
        node_remaining = self.state.node_remaining
        for i, home in enumerate(self._vec_tile_list):
            if node_remaining[i * n_tiles + home] == 0:
                self._enqueue_and_pump(home, [0, T_MUL, i, 0, 0, 0, i], 0)

    # ------------------------------------------------------------------
    # Shared control path (event scheduling + completion logic the
    # issue model calls back into)
    # ------------------------------------------------------------------
    def _schedule_pump(self, tile_id: int, time: int) -> None:
        """Make sure a pump covers the tile's work from ``time`` on.

        The pump is clamped to the PE's next free slot (nothing can
        issue before it) and deduplicated: a tile keeps at most one
        live pump, at the earliest time any of its tasks could start.
        """
        tile = self.state.tiles[tile_id]
        if not self._ideal and tile.pe_time > time:
            time = tile.pe_time
        nxt = tile.next_pump
        if nxt is None or time < nxt:
            tile.next_pump = time
            self.events.push(time, EV_PUMP, tile_id)

    def _enqueue_and_pump(self, tile_id: int, task: list,
                          time: int) -> None:
        """Fused enqueue + :meth:`_schedule_pump` (one tile fetch)."""
        tile = self.state.enqueue(tile_id, task)
        if not self._ideal and tile.pe_time > time:
            time = tile.pe_time
        nxt = tile.next_pump
        if nxt is None or time < nxt:
            tile.next_pump = time
            self.events.push(time, EV_PUMP, tile_id)

    def _handle_mcast(self, payload, time: int) -> None:
        """A multicast value arrived over a tree edge: fork and trigger."""
        edge, value = payload
        lo = self._fork_lo[edge]
        hi = self._fork_hi[edge]
        if lo < hi:
            traverse = self.fabric.traverse
            link = self.mcast_link
            for child_edge in range(lo, hi):
                traverse(link[child_edge], time, EV_MCAST,
                         (child_edge, value))
        lo = self._edge_lo[edge]
        if lo >= 0:
            hi = self._edge_hi[edge]
            self._enqueue_and_pump(
                self._edge_child[edge],
                [time, T_SAAC, self._rows[lo:hi], self._vals[lo:hi], value,
                 0, self._rows[lo]],
                time,
            )

    def _handle_partial(self, payload, time: int) -> None:
        """A reduction partial arrived: merge via a standalone Add."""
        node, row, value = payload
        self._enqueue_and_pump(node, [time, T_ADD, row, value, 0, 0, row],
                               time)

    def _node_input_done(self, row: int, node: int, time: int) -> None:
        """One expected input of reduction node ``(row, node)`` merged."""
        state = self.state
        remaining_map = state.node_remaining
        key = row * self.n_tiles + node
        remaining = remaining_map[key] - 1
        remaining_map[key] = remaining
        if remaining > 0:
            return
        if node == self._vec_tile_list[row]:
            self._row_complete(row, time)
        else:
            parent = self._red_parent[key]
            value = state.tiles[node].partial[row]
            self._enqueue_and_pump(
                node, [time, T_SEND, ("partial", row, value, parent),
                       0, 0, 0, self._dummy_row],
                time,
            )

    def _row_complete(self, row: int, time: int) -> None:
        """All of row ``row``'s inputs reached its home tile."""
        home = self._vec_tile_list[row]
        state = self.state
        if self.program.dependent:
            self._enqueue_and_pump(home, [time, T_MUL, row, 0, 0, 0, row],
                                   time)
        else:
            tile = state.tiles.get(home)
            state.output[row] = 0.0 if tile is None else tile.partial[row]
            state.rows_done += 1
            if time > state.end_time:
                state.end_time = time

    def _solve_row(self, row: int, home: int, completion: int) -> None:
        """SpTRSV: produce ``x_row`` and distribute it down the column."""
        program = self.program
        state = self.state
        acc = state.tiles[home].partial[row]
        # ``float()`` keeps the produced value a native float (the bits
        # are unchanged) so downstream FMACs avoid numpy scalar math.
        value = float((self._b[row] - acc) * program.inv_diag[row])
        state.output[row] = value
        state.rows_done += 1
        lo = self._home_lo[row]
        if lo >= 0:
            hi = self._home_hi[row]
            state.enqueue(home, [completion, T_SAAC, self._rows[lo:hi],
                                 self._vals[lo:hi], value, 0,
                                 self._rows[lo]])
        first = self._mcast_first[row]
        for tree in range(first, first + self._mcast_count[row]):
            state.enqueue(home, [completion, T_SEND,
                                 ("mcast", tree, value),
                                 0, 0, 0, self._dummy_row])
        self._schedule_pump(home, completion)
