"""Numeric state layer: partials, remaining-input counts, solve values.

One implementation of the simulator's *functional* state: per-tile
dense accumulators and task queues
(:class:`TileState`), plus the kernel-wide completion bookkeeping
(:class:`KernelState`).  Timing layers (fabric, issue) mutate this
state but the numeric semantics — which IEEE-754 operations run, in
which order — are defined here once.

Layer contract: ``state`` sits directly above ``events`` and imports
nothing else from :mod:`repro.sim`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

# Task kinds (slot 1 of a task; each is also the kind of the ops it
# issues, so ``tile.op_counts[kind]`` indexes without translation).
T_SAAC = 0   #: ScaleAndAccumCol: a run of FMACs against a column segment
T_ADD = 1    #: merge one incoming reduction partial
T_MUL = 2    #: solve x_i = (b_i - acc) * (1/d_i)
T_SEND = 3   #: push one value into the router

#: Name of each op kind, indexed by kind: the ``op_counts`` keys of a
#: kernel result and the event names of its Chrome trace (Fig. 21's
#: cycle-breakdown categories).
OP_NAMES = ("fmac", "add", "mul", "send")

# Task layout: ``[arrival_time, kind, payload..., hazard_row]``.  Slot 6
# always holds the row whose accumulator gates the task's *current*
# operation (a dummy row ``n`` with permanently-zero ready time for
# Sends), so the issue layer's selection scan reads one uniform
# ``acc[task[6]]`` with no per-kind branching.
TASK_HAZARD = 6

#: One PE task: a mutable list (mutated in place as ops retire).
Task = List  # type: ignore[type-arg]


class TileState:
    """Mutable per-tile simulation state (dense accumulators).

    ``acc_ready``/``partial`` are dense per-row Python lists — scalar
    reads/writes in the issue loops cost a plain list index instead of
    a dict probe or numpy scalar round-trip.  ``acc_ready`` has one
    extra slot: row ``n`` is the *dummy hazard row* named by Send
    tasks' ``TASK_HAZARD`` field; it is never written, so
    ``acc_ready[task[6]]`` is branch-free across task kinds.
    ``local_rem`` is this tile's remaining local FMACs per row, a
    dense list built from the program's counters at run start
    (``None`` when the tile holds no matrix nonzeros).
    """

    __slots__ = (
        "tasks", "pe_time", "acc_ready", "busy", "op_counts",
        "next_pump", "partial", "local_rem",
    )

    def __init__(self, n: int, local_rem: Optional[List[int]]) -> None:
        self.tasks: List[Task] = []
        self.pe_time = 0
        self.busy = 0
        self.op_counts = [0, 0, 0, 0]  # FMAC, ADD, MUL, SEND
        self.next_pump: Optional[int] = None
        self.acc_ready = [0] * (n + 1)
        self.partial = [0.0] * n
        self.local_rem = local_rem


class KernelState:
    """Kernel-wide numeric and completion state of one execution.

    Owns the tile map, the reduction-node input counters, the output
    vector, spill accounting for the message buffer, and the running
    compute-completion time.  The composition root creates one per
    :meth:`~repro.sim.engine.KernelSimulator.run`.

    ``node_remaining`` maps ``row * n_tiles + node`` to the inputs
    reduction node ``(row, node)`` still expects; the composition root
    fills it with a fresh copy of :func:`input_counts` per run.
    """

    __slots__ = (
        "n", "tiles", "node_remaining", "rows_done", "output",
        "spills", "end_time", "msg_buffer_entries", "spill_penalty",
        "local_by_tile",
    )

    def __init__(self, program, msg_buffer_entries: int,
                 spill_penalty: int) -> None:
        n = self.n = program.n
        self.tiles: Dict[int, TileState] = {}
        self.node_remaining: Dict[int, int] = {}
        self.rows_done = 0
        self.output = np.zeros(n)
        self.spills = 0
        #: Latest *compute* completion seen so far; the fabric tracks
        #: link arrivals separately and the composition root takes the
        #: max of the two for the reported cycle count.
        self.end_time = 0
        self.msg_buffer_entries = msg_buffer_entries
        self.spill_penalty = spill_penalty
        # The program's local FMAC counters hold one entry per
        # (tile, row) pair; each tile's become a dense per-row Python
        # list, so the issue loops decrement with scalar list indexing.
        rows = program.local_rows.tolist()
        counts = program.local_counts.tolist()
        ptr = program.local_ptr.tolist()
        self.local_by_tile: Dict[int, List[int]] = {}
        for p, tile in enumerate(program.local_tiles.tolist()):
            rem = [0] * n
            for k in range(ptr[p], ptr[p + 1]):
                rem[rows[k]] = counts[k]
            self.local_by_tile[tile] = rem

    # ------------------------------------------------------------------
    def tile(self, tile_id: int) -> TileState:
        """The tile's state, created on first touch."""
        tile = self.tiles.get(tile_id)
        if tile is None:
            tile = TileState(self.n, self.local_by_tile.get(tile_id))
            self.tiles[tile_id] = tile
        return tile

    def enqueue(self, tile_id: int, task: Task) -> TileState:
        """Append a task to a tile, modeling message-buffer spills.

        A task arriving at a queue already holding
        ``msg_buffer_entries`` entries overflows the register buffer
        into the Data SRAM: the spill is counted and the task's start
        is delayed by one SRAM round trip (Sec. V-A).
        """
        tile = self.tiles.get(tile_id)
        if tile is None:
            tile = self.tile(tile_id)
        tasks = tile.tasks
        if len(tasks) >= self.msg_buffer_entries:
            self.spills += 1
            task[0] += self.spill_penalty
        tasks.append(task)
        return tile

    def op_totals(self) -> Tuple[List[int], int]:
        """``([fmac, add, mul, send] totals, busy-slot total)``."""
        totals = [0, 0, 0, 0]
        busy = 0
        for tile in self.tiles.values():
            busy += tile.busy
            counts = tile.op_counts
            for k in range(4):
                totals[k] += counts[k]
        return totals, busy


def input_counts(program, n_tiles: int) -> Dict[int, int]:
    """Expected inputs at every reduction-tree node and every home.

    Keyed ``row * n_tiles + node``.  A node of row ``i``'s reduction
    tree (its home plus every tree child) expects one partial per tree
    child it parents, plus one for its own FMACs when it holds row-``i``
    nonzeros; a row without a tree has only its home node.

    ``program`` is duck-typed (a
    :class:`~repro.dataflow.ir.CompiledKernel`); the state layer reads
    only ``n``, ``vec_tile``, the flat reduction-forest arrays
    (``red_row``/``red_edge_ptr``/``red_child``/``red_parent``) and the
    local counters' (tile, row) pairs.
    """
    n = program.n
    edge_row = np.repeat(program.red_row, np.diff(program.red_edge_ptr))
    nodes = np.unique(np.concatenate((
        np.arange(n, dtype=np.int64) * n_tiles + program.vec_tile,
        edge_row * n_tiles + program.red_child,
    )))
    local_tile = np.repeat(program.local_tiles, np.diff(program.local_ptr))
    inputs = np.concatenate((
        edge_row * n_tiles + program.red_parent,
        program.local_rows * n_tiles + local_tile,
    ))
    # Count only inputs that land on a tree node.
    slot = np.minimum(np.searchsorted(nodes, inputs), len(nodes) - 1)
    on_node = nodes[slot] == inputs
    expected = np.bincount(slot[on_node], minlength=len(nodes))
    return dict(zip(nodes.tolist(), expected.tolist()))
