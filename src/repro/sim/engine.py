"""Discrete-event kernel simulator: the layer composition root.

Executes one :class:`~repro.dataflow.ir.CompiledKernel`
cycle-accurately *and* numerically.  :class:`KernelSimulator` composes
the simulator layers (``events ← state ← fabric ← issue``, see
:mod:`repro.sim` and ``docs/simulator.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import AzulConfig
from repro.dataflow.ir import CompiledKernel
from repro.errors import SimulationError
from repro.sim.events import EV_PUMP, EventQueue, drain
from repro.sim.fabric import LinkFabric, flatten_multicast_forest
from repro.sim.issue import BatchedIssue
from repro.sim.pe import PEModel
from repro.sim.state import T_MUL, T_SAAC, T_SEND, KernelState


@dataclass
class KernelResult:
    """Outcome of simulating one kernel.

    ``cycles`` is the completion time; ``output`` the computed result
    vector (``y`` for SpMV, ``x`` for SpTRSV); ``op_counts`` executed
    operations by kind (``fmac``/``add``/``mul``/``send``);
    ``busy_slots`` issue slots consumed across all PEs; ``per_link``
    activations per directed link; ``spills`` messages that overflowed
    the register buffer into the Data SRAM; ``issue_trace`` (when
    recording was requested) one ``(cycle, tile, op_kind)`` tuple per
    issued operation, for timeline/heatmap analysis.  ``n_tiles``
    records the simulated machine's tile count so the trace helpers in
    :mod:`repro.sim.trace` need no redundant caller-side geometry.
    """

    name: str
    cycles: int
    output: np.ndarray
    op_counts: Dict[str, int]
    busy_slots: int
    link_activations: int
    per_link: Dict[Tuple[int, int], int] = field(default_factory=dict)
    spills: int = 0
    #: Total cycles flits waited for busy links (congestion measure)
    link_queue_delay: int = 0
    issue_trace: Optional[List[Tuple[int, int, int]]] = None
    #: Tile count of the machine that produced this result (``None``
    #: only on results unpickled from pre-v4 cache entries).
    n_tiles: Optional[int] = None

    def flops(self) -> int:
        """FLOPs executed, including distribution-overhead Adds.

        Reported GFLOP/s uses the *algorithmic* FLOP count; this
        counter additionally includes the standalone Adds that
        inter-tile reductions introduce.
        """
        return (
            2 * self.op_counts["fmac"]
            + self.op_counts["add"]
            + self.op_counts["mul"]
        )

class KernelSimulator:
    """Simulates one kernel program on the configured machine."""

    #: Issue model, instantiated once per simulator.
    issue_class = BatchedIssue

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
        self.issue = self.issue_class()
        # Shared static structures (built once per simulator)
        # straight from the program's flat IR arrays.  Column segments
        # become plain Python lists: scalar ``rows[pos]`` /
        # ``vals[pos]`` reads are then native ints/floats.  ``tolist``
        # preserves the exact IEEE-754 values.
        rows_list = program.rows.tolist()
        vals_list = program.values.tolist()
        seg_ptr = program.seg_ptr.tolist()
        seg_tile = program.seg_tile.tolist()
        seg_col = program.seg_col.tolist()
        segments_by_tile: Dict[int, Dict[int, tuple]] = {}
        for s in range(len(seg_tile)):
            lo, hi = seg_ptr[s], seg_ptr[s + 1]
            segments_by_tile.setdefault(seg_tile[s], {})[seg_col[s]] = (
                rows_list[lo:hi], vals_list[lo:hi],
            )
        self._segments = segments_by_tile
        # Flattened multicast routing (one dict probe per arrival); the
        # destination payload is the triggered column segment, if any.
        self._mcast_plan, self.mcast_send = flatten_multicast_forest(
            program, self._segment_at,
        )
        #: Multicast trees per column (0 for home-only columns).
        self._mcast_count = program.mcast_count.tolist()
        # Reduction next-hops, flattened to one probe per completion:
        # ``(row, node) -> parent``.
        red_parent: Dict[Tuple[int, int], int] = {}
        red_row = program.red_row.tolist()
        red_edge_ptr = program.red_edge_ptr.tolist()
        red_child = program.red_child.tolist()
        red_parent_arr = program.red_parent.tolist()
        for t, row in enumerate(red_row):
            for e in range(red_edge_ptr[t], red_edge_ptr[t + 1]):
                red_parent[(row, red_child[e])] = red_parent_arr[e]
        self._red_parent = red_parent
        self._vec_tile_list = program.vec_tile.tolist()
        # Dummy hazard row (see ``state.TASK_HAZARD``): Sends gate on
        # nothing, so they point at accumulator slot ``n`` which stays
        # 0 forever.
        self._dummy_row = int(program.n)

    def _segment_at(self, node: int, j: int):
        segments = self._segments.get(node)
        return None if segments is None else segments.get(j)

    # ------------------------------------------------------------------
    def run(self, x=None, b=None) -> KernelResult:
        """Execute the kernel; returns timing, stats, and the output.

        ``x`` is the input vector for SpMV; ``b`` the right-hand side
        for SpTRSV.
        """
        program = self.program
        n = program.n
        config = self.config
        self.events = EventQueue()
        self.state = KernelState(
            n, program.local_tiles, program.local_counts,
            config.msg_buffer_entries, 2 * config.sram_access_cycles,
        )
        self.fabric = LinkFabric(self.events, config.hop_cycles)
        self.issue_trace = [] if self.record_issue_trace else None
        self._b = None if b is None else np.asarray(b, dtype=np.float64)
        self._x = (
            np.asarray(x, dtype=np.float64) if x is not None
            else np.zeros(n)
        )
        self.state.init_node_remaining(program)
        self.issue.bind(self)

        if program.dependent:
            if self._b is None:
                raise SimulationError("SpTRSV simulation requires b")
            self._init_sptrsv()
        else:
            if x is None:
                raise SimulationError("SpMV simulation requires x")
            self._init_spmv()

        drain(self.events, self.issue.pump, self._handle_mcast,
              self._handle_partial)

        state = self.state
        if state.rows_done != n:
            raise SimulationError(
                f"{program.name}: deadlock — only {state.rows_done}/{n} "
                "rows completed"
            )
        op_totals, busy = state.op_totals()
        fabric = self.fabric
        cycles = (
            state.end_time if state.end_time >= fabric.last_arrival
            else fabric.last_arrival
        )
        return KernelResult(
            name=program.name,
            cycles=cycles,
            output=state.output,
            op_counts={
                "fmac": op_totals[0],
                "add": op_totals[1],
                "mul": op_totals[2],
                "send": op_totals[3],
            },
            busy_slots=busy,
            link_activations=fabric.link_count,
            per_link=fabric.per_link,
            spills=state.spills,
            link_queue_delay=fabric.queue_delay,
            issue_trace=self.issue_trace,
            n_tiles=self.geometry.n_tiles,
        )

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------
    def _init_spmv(self) -> None:
        """Distribute input-vector values at time zero (SendV tasks)."""
        program = self.program
        state = self.state
        enqueue = state.enqueue
        vec_tile = self._vec_tile_list
        x = self._x
        dummy = self._dummy_row
        for j in range(program.n):
            home = vec_tile[j]
            value = float(x[j])
            segment = self._segment_at(home, j)
            if segment is not None:
                enqueue(home, [0, T_SAAC, segment[0], segment[1],
                               value, 0, segment[0][0]])
            for tree_index in range(self._mcast_count[j]):
                enqueue(home, [0, T_SEND, ("mcast", j, value, tree_index),
                               0, 0, 0, dummy])
        # Rows with no pending inputs complete immediately (y_i = 0 or
        # purely-local rows start from their FMACs).
        node_remaining = state.node_remaining
        for i in range(program.n):
            if node_remaining[(i, vec_tile[i])] == 0:
                self._row_complete(i, 0)
        self._flush_pumps()

    def _init_sptrsv(self) -> None:
        """Schedule dependence-free rows for solving at time zero."""
        program = self.program
        node_remaining = self.state.node_remaining
        vec_tile = self._vec_tile_list
        for i in range(program.n):
            home = vec_tile[i]
            if node_remaining[(i, home)] == 0:
                self.state.enqueue(home, [0, T_MUL, i, 0, 0, 0, i])
        self._flush_pumps()

    def _flush_pumps(self) -> None:
        for tile_id in list(self.state.tiles):
            self._schedule_pump(tile_id, 0)

    # ------------------------------------------------------------------
    # Shared control path (event scheduling + completion logic the
    # issue model calls back into)
    # ------------------------------------------------------------------
    def _schedule_pump(self, tile_id: int, time: int) -> None:
        tile = self.state.tile(tile_id)
        if not self._ideal and tile.pe_time > time:
            # Nothing can issue before the PE's next free slot anyway.
            time = tile.pe_time
        nxt = tile.next_pump
        if nxt is None or time < nxt:
            tile.next_pump = time
            self.events.push(time, EV_PUMP, tile_id)

    def _enqueue_and_pump(self, tile_id: int, task: list,
                          time: int) -> None:
        """Fused enqueue + pump scheduling (one tile fetch)."""
        tile = self.state.enqueue(tile_id, task)
        if not self._ideal and tile.pe_time > time:
            time = tile.pe_time
        nxt = tile.next_pump
        if nxt is None or time < nxt:
            tile.next_pump = time
            self.events.push(time, EV_PUMP, tile_id)

    def _handle_mcast(self, payload, time: int) -> None:
        """A multicast value reached a node: forward and trigger work."""
        node, j, value, tree_index = payload
        children, segment = self._mcast_plan[(j, tree_index, node)]
        if children:
            traverse = self.fabric.traverse
            for child in children:
                traverse(node, child, time, 1,  # EV_MCAST
                         (child, j, value, tree_index))
        if segment is not None:
            self._enqueue_and_pump(
                node, [time, T_SAAC, segment[0], segment[1], value, 0,
                       segment[0][0]],
                time,
            )

    def _handle_partial(self, payload, time: int) -> None:
        """A reduction partial arrived: merge via a standalone Add."""
        node, row, value = payload
        self._enqueue_and_pump(node, [time, 1, row, value, 0, 0, row],
                               time)  # T_ADD

    def _node_input_done(self, row: int, node: int, time: int) -> None:
        """One expected input of reduction node ``(row, node)`` merged."""
        state = self.state
        remaining_map = state.node_remaining
        key = (row, node)
        remaining = remaining_map[key] - 1
        remaining_map[key] = remaining
        if remaining > 0:
            return
        home = self._vec_tile_list[row]
        if node == home:
            self._row_complete(row, time)
        else:
            parent = self._red_parent[(row, node)]
            tile = state.tiles.get(node)
            value = 0.0 if tile is None else tile.partial[row]
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
        tile = state.tiles.get(home)
        acc = 0.0 if tile is None else tile.partial[row]
        # ``float()`` keeps the produced value a native float (the bits
        # are unchanged) so downstream FMACs avoid numpy scalar math.
        value = float((self._b[row] - acc) * program.inv_diag[row])
        state.output[row] = value
        state.rows_done += 1
        segment = self._segment_at(home, row)
        if segment is not None:
            state.enqueue(home, [completion, T_SAAC, segment[0],
                                 segment[1], value, 0, segment[0][0]])
        for tree_index in range(self._mcast_count[row]):
            state.enqueue(home, [completion, T_SEND,
                                 ("mcast", row, value, tree_index),
                                 0, 0, 0, self._dummy_row])
        self._schedule_pump(home, completion)

