"""Fiduccia-Mattheyses (FM) boundary refinement for bisections.

Standard FM with a lazy-deletion heap: vertices are moved in best-gain
order (each at most once per pass), the best prefix of the move sequence
is kept, and the rest rolled back.  Moves must respect per-constraint
weight caps on the receiving side, which is how the multi-constraint
balance of Sec. IV-C is enforced during refinement.

The selection loop (:func:`_fm_pass`) is separate from the bookkeeping
(:class:`_BisectionState`):

* **init** — cut counts via one ``bincount`` over the flat pin array;
  per-vertex gains from a single vectorized pass over all (edge, pin)
  incidences.  Counts, gains, part weights and sides are then mirrored
  as Python lists, next to the hypergraph's cached list CSR
  (:meth:`Hypergraph.csr_lists`).
* **move** — O(degree) delta-gain updates in a scalar loop over the
  incident edges' pins.  A move touches a few dozen pins, too few to
  amortize numpy's per-call overhead.  It returns the pins to re-push.
* **boundary** — one vectorized cut-edge mask seeds the heap.

The scalar loop visits (edge, pin) slots in the order an ``np.add.at``
scatter over the gathered pins would apply them, so every gain gets
the same float additions in the same sequence as in an array-at-a-time
formulation, on any weights.

**Re-push rule.**  The heap pops the smallest ``(-gain, vertex)``
entry, skips locked vertices and re-pushes stale entries with the
current gain, so which vertex moves (or is locked by its cap) next
depends only on which unlocked vertices hold an entry equal to their
current gain.  Every unlocked vertex pushed in a pass keeps such an
entry: a move re-pushes every pin of each incident edge whose delta is
non-zero.  The classic rule re-pushes every neighbour, and on any
weights the extra entries are duplicates.  On an edge of non-zero
weight, a pin's delta is zero only if the edge was already cut before
the move: a same-side pin gets a zero delta only when the far side
holds pins, and a far-side pin exists only on a cut edge.  So the edge
was cut at pass start, when its pins seeded the heap, or cut by an
earlier move of the pass, whose non-zero deltas pushed all its pins.
A zero-weight edge carries no delta at all, so its pins are re-pushed
on every move, as the classic rule does.

**Rollback.**  A pass that keeps a prefix and is followed by another
pass undoes the rest with full moves.  After the last pass, or a pass
that did not improve (which ends refinement), nothing reads the gains,
counts or part weights again, so the tail is undone on the sides only.

``tests/oracles/refine.py`` keeps the classic loop (re-push every
neighbour, roll back with full moves) and a per-vertex recomputing
state.  Production equals the classic loop driving
:class:`_BisectionState` on any weights.  On Azul's dyadic edge
weights the incremental gains are also bit-exact against recomputed
ones, so production equals the classic loop on the recomputing state
too (``tests/test_partitioner_equivalence.py``).

Layer contract: ``refine`` sits above ``hgraph`` and below
``partitioner`` (see ``tools/check_layers.py``).
"""

from __future__ import annotations

import heapq
from typing import List

import numpy as np

from repro.hypergraph.hgraph import Hypergraph


class _BisectionState:
    """Incremental cut/gain bookkeeping for one bisection.

    Built vectorized, then kept as Python lists: each move touches a
    few dozen pins, where scalar list updates beat numpy's per-call
    overhead.  :func:`_fm_pass` reads ``side``, ``gains``,
    ``part_weights`` and ``vertex_weights`` directly.  Vertex weights
    are one flat row-major list (vertex ``v``'s start at
    ``v * n_constraints``): converting the matrix to one list of rows
    costs about twice as much, a noticeable share of a small level's
    refinement.
    """

    def __init__(self, hgraph: Hypergraph, side: np.ndarray):
        self.hgraph = hgraph
        self.edge_sizes = hgraph.edge_sizes()
        pin_edge = hgraph.pin_edge_ids()
        pin_side = side[hgraph.pins]
        # Pins of each edge currently on side 0 (one bincount pass).
        count0 = np.bincount(
            pin_edge, weights=(pin_side == 0).astype(np.float64),
            minlength=hgraph.n_edges,
        ).astype(np.int64)
        part_weights = np.zeros((2, hgraph.n_constraints))
        for s in (0, 1):
            part_weights[s] = hgraph.vertex_weights[side == s].sum(axis=0)
        # Per-vertex gains from one pass over all (edge, pin) slots:
        # the moved-edge contribution of pin u is +w when u is the lone
        # pin on its side (the move uncuts e) and -w when every pin of
        # e sits on u's side (the move cuts e).
        sz = self.edge_sizes[pin_edge]
        c0 = count0[pin_edge]
        on_my = np.where(pin_side == 0, c0, sz - c0)
        contrib = hgraph.edge_weights[pin_edge] * (
            (on_my == 1).astype(np.float64) - (on_my == sz)
        )
        gains = np.bincount(
            hgraph.pins, weights=contrib, minlength=hgraph.n_vertices
        )
        self.side: List[int] = side.tolist()
        self.count0: List[int] = count0.tolist()
        self.gains: List[float] = gains.tolist()
        self.part_weights: List[List[float]] = part_weights.tolist()
        self.n_constraints = hgraph.n_constraints
        self.vertex_weights: List[float] = (
            hgraph.vertex_weights.ravel().tolist()
        )
        self._edge_weights = hgraph.edge_weights.tolist()

    def move(self, v: int) -> List[int]:
        """Switch ``v``'s side with O(degree) scalar delta-gain updates.

        Pins are visited in incident-edge, then pin, order, so each
        gain receives its float deltas in a fixed sequence.  Returns
        the pins whose heap entries :func:`_fm_pass` must refresh:
        every pin (``v`` included, possibly repeated) of each incident
        edge with a non-zero delta or a zero weight.
        """
        pins, edge_ptr, ve_ptr, ve_ids = self.hgraph.csr_lists()
        side, count0, gains = self.side, self.count0, self.gains
        edge_weights = self._edge_weights
        s = side[v]
        step = -1 if s == 0 else 1
        dirty: List[int] = []
        for e in ve_ids[ve_ptr[v]:ve_ptr[v + 1]]:
            start, end = edge_ptr[e], edge_ptr[e + 1]
            sz = end - start
            c0 = count0[e]
            count0[e] = c0 + step
            # Pre-move pin counts on v's side (cs) and the far side (ct).
            cs = c0 if s == 0 else sz - c0
            ct = sz - cs
            w = edge_weights[e]
            # Same-side pins: moving v away adds +w when v and u were
            # the only same-side pins (u becomes lone: cs == 2) and +w
            # when the edge was uncut on this side (u can no longer
            # uncut for free: cs == sz, reclaiming the -w it carried).
            # Far-side pins lose -w when v joins a lone pin (ct == 1)
            # or fills the edge (ct == sz - 1).
            same = w * ((cs == 2) + (cs == sz))
            far = -w * ((ct == 1) + (ct == sz - 1))
            # All-zero deltas are skipped: that can only change the sign
            # of a zero gain, which no comparison distinguishes.
            if same or far:
                edge_pins = pins[start:end]
                for u in edge_pins:
                    if u != v:
                        gains[u] += same if side[u] == s else far
                dirty += edge_pins
            elif not w:
                dirty += pins[start:end]
        # Every per-edge contribution of v itself flips sign exactly.
        gains[v] = -gains[v]
        src, dst = self.part_weights[s], self.part_weights[1 - s]
        n_constraints = self.n_constraints
        base = v * n_constraints
        weight = self.vertex_weights[base:base + n_constraints]
        for c, x in enumerate(weight):
            src[c] -= x
            dst[c] += x
        side[v] = 1 - s
        return dirty

    def boundary_vertices(self) -> List[int]:
        """Vertices incident to at least one cut edge, ascending."""
        hgraph = self.hgraph
        count0 = np.array(self.count0, dtype=np.int64)
        cut_edges = (count0 > 0) & (count0 < self.edge_sizes)
        on_cut = np.zeros(hgraph.n_vertices, dtype=bool)
        on_cut[hgraph.pins[cut_edges[hgraph.pin_edge_ids()]]] = True
        return np.flatnonzero(on_cut).tolist()


def fm_refine(hgraph: Hypergraph, side: np.ndarray, caps: np.ndarray,
              passes: int = 2, stall_limit: int = 64) -> np.ndarray:
    """Refine a bisection in place; returns the refined side array.

    Parameters
    ----------
    side:
        Current 0/1 assignment (modified in place and returned).
    caps:
        ``(2, n_constraints)`` per-side weight ceilings.
    passes:
        Maximum number of full FM passes.
    stall_limit:
        A pass aborts after this many consecutive non-improving moves.
    """
    state = _BisectionState(hgraph, side)
    caps_list = caps.tolist()
    for index in range(passes):
        if not _fm_pass(state, caps_list, stall_limit,
                        last=index == passes - 1):
            break
    side[:] = state.side
    return side


def _fm_pass(state: _BisectionState, caps: List[List[float]],
             stall_limit: int, last: bool) -> bool:
    """One FM pass; returns True if the cut improved.

    The lazy-deletion heap pops the highest current gain (ties to the
    lowest vertex id) and re-pushes stale entries with their current
    gain; each move re-pushes the unlocked pins that
    :meth:`_BisectionState.move` returns (the module docstring argues
    why no other entry could change a decision).  With ``last`` set, or
    when the pass did not improve, the moves after the best prefix are
    undone on the sides alone: no pass follows to read the rest of the
    bookkeeping.
    """
    side, gains = state.side, state.gains
    part_weights, vertex_weights = state.part_weights, state.vertex_weights
    locked = [False] * len(side)
    n_constraints = state.n_constraints
    constraints = range(n_constraints)
    heap = [(-gains[v], v) for v in state.boundary_vertices()]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush

    moves: List[int] = []
    cumulative = 0.0
    best_cumulative = 0.0
    best_index = 0
    stall = 0

    while heap and stall < stall_limit:
        neg_gain, v = heappop(heap)
        if locked[v]:
            continue
        gain = gains[v]
        if -neg_gain != gain:
            # Stale entry: re-push with the current gain.
            heappush(heap, (-gain, v))
            continue
        locked[v] = True
        destination = 1 - side[v]
        current, cap = part_weights[destination], caps[destination]
        base = v * n_constraints
        for c in constraints:
            if not current[c] + vertex_weights[base + c] <= cap[c]:
                break
        else:
            dirty = state.move(v)
            moves.append(v)
            cumulative += gain
            if cumulative > best_cumulative + 1e-12:
                best_cumulative = cumulative
                best_index = len(moves)
                stall = 0
            else:
                stall += 1
            for u in dirty:
                if not locked[u]:
                    heappush(heap, (-gains[u], u))

    improved = best_cumulative > 0.0
    if last or not improved:
        for v in moves[best_index:]:
            side[v] = 1 - side[v]
    else:
        for v in reversed(moves[best_index:]):
            state.move(v)
    return improved
