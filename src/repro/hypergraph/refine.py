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
  amortize numpy's per-call overhead.
* **affected** — each vertex's sorted neighbor list, memoised (it is
  static per hypergraph); **boundary** — one vectorized cut-edge mask.

The scalar loop visits (edge, pin) slots in the order an ``np.add.at``
scatter over the gathered pins would apply them, so every gain gets
the same float additions in the same sequence as in an array-at-a-time
formulation, on any weights.

Because Azul's hypergraphs carry dyadic edge weights (integers and
their coarsened sums), the incremental delta-gain arithmetic is also
bit-exact against recomputing each gain from its incident edges; the
deterministic ``(-gain, vertex)`` tie-break does the rest.
``tests/test_partitioner_equivalence.py`` drives :func:`_fm_pass` with
such a per-vertex recomputing state as an oracle and asserts identical
assignments.

Layer contract: ``refine`` sits above ``hgraph`` and below
``partitioner`` (see ``tools/check_layers.py``).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set

import numpy as np

from repro.hypergraph.hgraph import Hypergraph


class _BisectionState:
    """Incremental cut/gain bookkeeping for one bisection.

    Built vectorized, then kept as Python lists: each move touches a
    few dozen pins, where scalar list updates beat numpy's per-call
    overhead.  :func:`_fm_pass` relies on the exact semantics of every
    method, so any other bookkeeping that drives it must preserve them.
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
        self._edge_weights = hgraph.edge_weights.tolist()
        self._vertex_weights = hgraph.vertex_weights.tolist()
        self._caps: Optional[np.ndarray] = None
        self._caps_list: List[List[float]] = []
        self._neighbors: Dict[int, List[int]] = {}

    def gain(self, v: int) -> float:
        """Cut reduction if ``v`` switches sides (O(1) lookup)."""
        return self.gains[v]

    def move(self, v: int) -> None:
        """Switch ``v``'s side with O(degree) scalar delta-gain updates.

        Pins are visited in incident-edge, then pin, order, so each
        gain receives its float deltas in a fixed sequence.
        """
        pins, edge_ptr, ve_ptr, ve_ids = self.hgraph.csr_lists()
        side, count0, gains = self.side, self.count0, self.gains
        s = side[v]
        step = -1 if s == 0 else 1
        for e in ve_ids[ve_ptr[v]:ve_ptr[v + 1]]:
            start, end = edge_ptr[e], edge_ptr[e + 1]
            sz = end - start
            c0 = count0[e]
            count0[e] = c0 + step
            # Pre-move pin counts on v's side (cs) and the far side (ct).
            cs = c0 if s == 0 else sz - c0
            ct = sz - cs
            w = self._edge_weights[e]
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
                for u in pins[start:end]:
                    if u != v:
                        gains[u] += same if side[u] == s else far
        # Every per-edge contribution of v itself flips sign exactly.
        gains[v] = -gains[v]
        weight = self._vertex_weights[v]
        src, dst = self.part_weights[s], self.part_weights[1 - s]
        for c, x in enumerate(weight):
            src[c] -= x
            dst[c] += x
        side[v] = 1 - s

    def fits_after_move(self, v: int, caps: np.ndarray) -> bool:
        """Whether moving ``v`` keeps the receiving side under its caps."""
        if caps is not self._caps:
            self._caps, self._caps_list = caps, caps.tolist()
        destination = 1 - self.side[v]
        current = self.part_weights[destination]
        cap = self._caps_list[destination]
        for c, x in enumerate(self._vertex_weights[v]):
            if not current[c] + x <= cap[c]:
                return False
        return True

    def affected(self, v: int) -> List[int]:
        """Vertices whose gain may change when ``v`` moves.

        The pins of every edge incident to ``v`` (excluding ``v``),
        unique and ascending — the dirty set re-pushed once per move
        wave by :func:`_fm_pass`.  Static per hypergraph, so memoised.
        """
        neighbors = self._neighbors.get(v)
        if neighbors is None:
            pins, edge_ptr, ve_ptr, ve_ids = self.hgraph.csr_lists()
            found: Set[int] = set()
            for e in ve_ids[ve_ptr[v]:ve_ptr[v + 1]]:
                found.update(pins[edge_ptr[e]:edge_ptr[e + 1]])
            found.discard(v)
            neighbors = self._neighbors[v] = sorted(found)
        return neighbors

    def boundary_vertices(self) -> np.ndarray:
        """Vertices incident to at least one cut edge (vectorized)."""
        hgraph = self.hgraph
        count0 = np.array(self.count0, dtype=np.int64)
        cut_edges = (count0 > 0) & (count0 < self.edge_sizes)
        return np.unique(hgraph.pins[cut_edges[hgraph.pin_edge_ids()]])


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
    for _ in range(passes):
        if not _fm_pass(hgraph, state, caps, stall_limit):
            break
    side[:] = state.side
    return side


def _fm_pass(hgraph: Hypergraph, state: _BisectionState, caps: np.ndarray,
             stall_limit: int) -> bool:
    """One FM pass; returns True if the cut improved.

    The lazy-deletion heap pops the highest
    current gain (ties to the lowest vertex id), stale entries are
    re-pushed with their current gain, and each move re-pushes its
    dirty neighborhood *once* (``state.affected``) instead of flooding
    the heap with one entry per (edge, pin) pair per move — the fix
    for the historical quadratic heap churn on dense edges.
    """
    locked = np.zeros(hgraph.n_vertices, dtype=bool)
    heap: List = []
    for v in state.boundary_vertices():
        v = int(v)
        heapq.heappush(heap, (-state.gain(v), v))

    moves: List[int] = []
    cumulative = 0.0
    best_cumulative = 0.0
    best_index = 0
    stall = 0

    while heap and stall < stall_limit:
        neg_gain, v = heapq.heappop(heap)
        if locked[v]:
            continue
        gain = state.gain(v)
        if -neg_gain != gain:
            # Stale entry: re-push with the current gain.
            heapq.heappush(heap, (-gain, v))
            continue
        if not state.fits_after_move(v, caps):
            locked[v] = True
            continue
        state.move(v)
        locked[v] = True
        moves.append(v)
        cumulative += gain
        if cumulative > best_cumulative + 1e-12:
            best_cumulative = cumulative
            best_index = len(moves)
            stall = 0
        else:
            stall += 1
        # Neighbor gains changed: one re-push per dirty vertex.
        for u in state.affected(v):
            if not locked[u]:
                heapq.heappush(heap, (-state.gain(u), u))

    # Roll back every move after the best prefix.
    for v in reversed(moves[best_index:]):
        state.move(v)
    return best_cumulative > 0.0
