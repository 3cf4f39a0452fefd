"""Golden FM models: the classic selection loop and per-vertex gains.

:func:`fm_pass_oracle` is the classic FM selection loop: after every
move it re-pushes each unlocked neighbour of the moved vertex (the pins
of its incident edges, unique and ascending), and it rolls every move
after the best prefix back with full moves.  Production
:func:`repro.hypergraph.refine._fm_pass` re-pushes only the pins whose
gains a move can change and rolls back on the sides alone when no pass
follows; driving the production :class:`~repro.hypergraph.refine.
_BisectionState`, the two must return identical sides on any weights.

:class:`RecomputingBisectionState` recomputes each gain from the
vertex's incident edges on demand.  Driven by the same loop, it and the
CSR state make identical move decisions whenever gain arithmetic is
exact — always on dyadic edge weights.
"""

from __future__ import annotations

import heapq
from typing import List

import numpy as np

from repro.hypergraph.hgraph import Hypergraph


class RecomputingBisectionState:
    """Incremental cut counts with gains recomputed per query."""

    def __init__(self, hgraph: Hypergraph, side: np.ndarray):
        self.hgraph = hgraph
        self.side = side
        self.edge_sizes = hgraph.edge_sizes()
        # Pins of each edge currently on side 0.
        self.count0 = np.zeros(hgraph.n_edges, dtype=np.int64)
        pin_sides = side[hgraph.pins]
        for e in range(hgraph.n_edges):
            start, end = hgraph.edge_ptr[e], hgraph.edge_ptr[e + 1]
            self.count0[e] = int((pin_sides[start:end] == 0).sum())
        self.part_weights = np.zeros((2, hgraph.n_constraints))
        for s in (0, 1):
            members = side == s
            self.part_weights[s] = hgraph.vertex_weights[members].sum(axis=0)
        self.gains = _RecomputedGains(self)

    def gain(self, v: int) -> float:
        """Cut reduction if ``v`` switches sides."""
        s = self.side[v]
        total = 0.0
        for e in self.hgraph.vertex_edges(v):
            e = int(e)
            size = self.edge_sizes[e]
            if size < 2:
                continue  # single-pin edges can never be cut
            on_my_side = self.count0[e] if s == 0 else size - self.count0[e]
            if on_my_side == 1:
                total += self.hgraph.edge_weights[e]  # move uncuts the edge
            elif on_my_side == size:
                total -= self.hgraph.edge_weights[e]  # move cuts the edge
        return total

    def move(self, v: int) -> None:
        """Switch ``v``'s side, updating edge counts and part weights."""
        s = int(self.side[v])
        delta = -1 if s == 0 else 1
        for e in self.hgraph.vertex_edges(v):
            self.count0[int(e)] += delta
        self.part_weights[s] -= self.hgraph.vertex_weights[v]
        self.part_weights[1 - s] += self.hgraph.vertex_weights[v]
        self.side[v] = 1 - s

    def boundary_vertices(self) -> np.ndarray:
        """Vertices incident to at least one cut edge (ascending)."""
        hgraph = self.hgraph
        sizes = self.edge_sizes
        cut_edges = (self.count0 > 0) & (self.count0 < sizes)
        boundary = np.zeros(hgraph.n_vertices, dtype=bool)
        for e in np.nonzero(cut_edges)[0]:
            boundary[hgraph.edge_pins(int(e))] = True
        return np.nonzero(boundary)[0]


class _RecomputedGains:
    """``gains[v]`` of a :class:`RecomputingBisectionState`, on demand."""

    def __init__(self, state: RecomputingBisectionState):
        self._state = state

    def __getitem__(self, v: int) -> float:
        return self._state.gain(v)


def neighbors(hgraph: Hypergraph, v: int) -> List[int]:
    """Pins of ``v``'s incident edges other than ``v``, ascending."""
    found = set()
    for e in hgraph.vertex_edges(v):
        found.update(hgraph.edge_pins(int(e)).tolist())
    found.discard(v)
    return sorted(found)


def fits_after_move(hgraph: Hypergraph, state, v: int,
                    caps: np.ndarray) -> bool:
    """Whether moving ``v`` keeps the receiving side under its caps."""
    destination = 1 - int(state.side[v])
    new_weight = (np.asarray(state.part_weights[destination])
                  + hgraph.vertex_weights[v])
    return bool((new_weight <= caps[destination]).all())


def fm_pass_oracle(hgraph: Hypergraph, state, caps: np.ndarray,
                   stall_limit: int) -> bool:
    """One classic FM pass over ``state``; returns True if the cut improved.

    ``state`` exposes ``side``, ``gains``, ``part_weights``, ``move``
    and ``boundary_vertices``, as both the production state and
    :class:`RecomputingBisectionState` do.
    """
    locked = np.zeros(hgraph.n_vertices, dtype=bool)
    heap: List = []
    for v in state.boundary_vertices():
        v = int(v)
        heapq.heappush(heap, (-state.gains[v], v))

    moves: List[int] = []
    cumulative = 0.0
    best_cumulative = 0.0
    best_index = 0
    stall = 0

    while heap and stall < stall_limit:
        neg_gain, v = heapq.heappop(heap)
        if locked[v]:
            continue
        gain = state.gains[v]
        if -neg_gain != gain:
            # Stale entry: re-push with the current gain.
            heapq.heappush(heap, (-gain, v))
            continue
        if not fits_after_move(hgraph, state, v, caps):
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
        # Neighbor gains may have changed: one re-push per neighbour.
        for u in neighbors(hgraph, v):
            if not locked[u]:
                heapq.heappush(heap, (-state.gains[u], u))

    # Roll back every move after the best prefix.
    for v in reversed(moves[best_index:]):
        state.move(v)
    return best_cumulative > 0.0


def fm_refine_oracle(hgraph: Hypergraph, side: np.ndarray, caps: np.ndarray,
                     passes: int = 2, stall_limit: int = 64,
                     state=RecomputingBisectionState) -> np.ndarray:
    """:func:`repro.hypergraph.refine.fm_refine` as the classic loop.

    ``state`` is the bookkeeping class the loop drives: the recomputing
    one by default, or production's ``_BisectionState``.
    """
    bookkeeping = state(hgraph, side)
    for _ in range(passes):
        if not fm_pass_oracle(hgraph, bookkeeping, caps, stall_limit):
            break
    side[:] = bookkeeping.side
    return side
