"""Fiduccia-Mattheyses (FM) boundary refinement for bisections.

Standard FM with a lazy-deletion heap: vertices are moved in best-gain
order (each at most once per pass), the best prefix of the move sequence
is kept, and the rest rolled back.  Moves must respect per-constraint
weight caps on the receiving side, which is how the multi-constraint
balance of Sec. IV-C is enforced during refinement.

The selection loop (:func:`_fm_pass`) is separate from the bookkeeping
(:class:`_BisectionState`), which keeps gains, cut counts, and
boundaries in flat numpy arrays:

* **init** — cut counts via one ``bincount`` over the flat pin array; a
  maintained per-vertex ``gains`` array built by a single vectorized
  pass over all (edge, pin) incidences.
* **move** — O(degree) delta-gain updates: one :func:`ragged_take`
  gather of the moved vertex's incident edges' pins, closed-form gain
  deltas per pin, one ``np.add.at`` scatter.
* **boundary / affected** — vectorized cut-edge masks over
  ``pin_edge_ids`` instead of per-edge Python loops.

Because Azul's hypergraphs carry dyadic edge weights (integers and
their coarsened sums), the incremental delta-gain arithmetic is
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
from typing import List, Optional

import numpy as np

from repro.hypergraph.hgraph import Hypergraph, ragged_take


class _BisectionState:
    """Incremental cut/gain bookkeeping for one bisection.

    CSR-array bookkeeping with a maintained per-vertex gain array.
    :func:`_fm_pass` relies on the exact semantics of every method, so
    any other bookkeeping that drives it must preserve them.
    """

    def __init__(self, hgraph: Hypergraph, side: np.ndarray):
        self.hgraph = hgraph
        self.side = side
        self.edge_sizes = hgraph.edge_sizes()
        pin_edge = hgraph.pin_edge_ids()
        # Pins of each edge currently on side 0 (one bincount pass).
        self.count0 = np.bincount(
            pin_edge,
            weights=(side[hgraph.pins] == 0).astype(np.float64),
            minlength=hgraph.n_edges,
        ).astype(np.int64)
        self.part_weights = np.zeros((2, hgraph.n_constraints))
        for s in (0, 1):
            members = side == s
            self.part_weights[s] = hgraph.vertex_weights[members].sum(axis=0)
        # Per-vertex gains from one pass over all (edge, pin) slots:
        # the moved-edge contribution of pin u is +w when u is the lone
        # pin on its side (the move uncuts e) and -w when every pin of
        # e sits on u's side (the move cuts e).
        sz = self.edge_sizes[pin_edge]
        c0 = self.count0[pin_edge]
        on_my = np.where(side[hgraph.pins] == 0, c0, sz - c0)
        contrib = hgraph.edge_weights[pin_edge] * (
            (on_my == 1).astype(np.float64) - (on_my == sz)
        )
        self.gains = np.bincount(
            hgraph.pins, weights=contrib, minlength=hgraph.n_vertices
        )
        # Incidence CSR, built once.
        self._ve_ptr, self._ve_ids = hgraph.incidence_arrays()
        # Dirty-neighbor cache from the last move (reused by affected()).
        self._last_move: int = -1
        self._last_neighbors: Optional[np.ndarray] = None

    def gain(self, v: int) -> float:
        """Cut reduction if ``v`` switches sides (O(1) lookup)."""
        return float(self.gains[v])

    def _incident(self, v: int) -> np.ndarray:
        return self._ve_ids[self._ve_ptr[v]:self._ve_ptr[v + 1]]

    def move(self, v: int) -> None:
        """Switch ``v``'s side with O(degree) numpy delta-gain updates."""
        hgraph = self.hgraph
        s = int(self.side[v])
        edges = self._incident(v)
        lengths = self.edge_sizes[edges]
        pv = ragged_take(hgraph.pins, hgraph.edge_ptr[edges], lengths)
        pe = np.repeat(edges, lengths)

        w = hgraph.edge_weights[pe]
        sz = self.edge_sizes[pe]
        c0 = self.count0[pe]
        # Pre-move pin counts on v's side (cs) and the far side (ct).
        cs = np.where(s == 0, c0, sz - c0)
        ct = sz - cs
        same = self.side[pv] == s
        # Same-side pins: moving v away adds +w when v and u were the
        # only same-side pins (u becomes lone: cs == 2) and +w when the
        # edge was uncut on this side (u can no longer uncut for free:
        # cs == sz, reclaiming the -w it carried).  Far-side pins lose
        # -w when v joins a lone pin (ct == 1) or fills the edge
        # (ct == sz - 1).
        delta = np.where(
            same,
            w * ((cs == 2).astype(np.float64) + (cs == sz)),
            -w * ((ct == 1).astype(np.float64) + (ct == sz - 1)),
        )
        not_v = pv != v
        neighbors = pv[not_v]
        np.add.at(self.gains, neighbors, delta[not_v])
        # Every per-edge contribution of v itself flips sign exactly.
        self.gains[v] = -self.gains[v]

        self.count0[edges] += -1 if s == 0 else 1
        self.part_weights[s] -= hgraph.vertex_weights[v]
        self.part_weights[1 - s] += hgraph.vertex_weights[v]
        self.side[v] = 1 - s

        self._last_move = v
        self._last_neighbors = neighbors

    def fits_after_move(self, v: int, caps: np.ndarray) -> bool:
        """Whether moving ``v`` keeps the receiving side under its caps."""
        destination = 1 - int(self.side[v])
        new_weight = (
            self.part_weights[destination] + self.hgraph.vertex_weights[v]
        )
        return bool((new_weight <= caps[destination]).all())

    def affected(self, v: int) -> List[int]:
        """Vertices whose gain may change when ``v`` moves.

        The pins of every edge incident to ``v`` (excluding ``v``),
        unique and ascending — the dirty set re-pushed once per move
        wave by :func:`_fm_pass`.
        """
        if v == self._last_move and self._last_neighbors is not None:
            neighbors = self._last_neighbors
        else:
            hgraph = self.hgraph
            edges = self._incident(v)
            lengths = self.edge_sizes[edges]
            pv = ragged_take(hgraph.pins, hgraph.edge_ptr[edges], lengths)
            neighbors = pv[pv != v]
        return np.unique(neighbors).tolist()

    def boundary_vertices(self) -> np.ndarray:
        """Vertices incident to at least one cut edge (vectorized)."""
        hgraph = self.hgraph
        cut_edges = (self.count0 > 0) & (self.count0 < self.edge_sizes)
        mask = cut_edges[hgraph.pin_edge_ids()]
        return np.unique(hgraph.pins[mask])


def fm_refine(hgraph: Hypergraph, side: np.ndarray, caps: np.ndarray,
              passes: int = 2, stall_limit: int = 64) -> np.ndarray:
    """Refine a bisection in place; returns the refined side array.

    Parameters
    ----------
    side:
        Current 0/1 assignment (modified in place).
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
