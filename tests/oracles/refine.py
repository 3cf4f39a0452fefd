"""Per-vertex FM bookkeeping: the partitioner's golden refinement model.

:class:`RecomputingBisectionState` recomputes each gain from the
vertex's incident edges on demand.  It drives the production selection
loop (:func:`repro.hypergraph.refine._fm_pass`), so it and the CSR
state in :mod:`repro.hypergraph.refine` make identical move decisions
whenever gain arithmetic is exact — always on dyadic edge weights.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.hypergraph.hgraph import Hypergraph
from repro.hypergraph.refine import _fm_pass


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

    def fits_after_move(self, v: int, caps: np.ndarray) -> bool:
        """Whether moving ``v`` keeps the receiving side under its caps."""
        destination = 1 - int(self.side[v])
        new_weight = (
            self.part_weights[destination] + self.hgraph.vertex_weights[v]
        )
        return bool((new_weight <= caps[destination]).all())

    def affected(self, v: int) -> List[int]:
        """Pins of ``v``'s incident edges other than ``v``, ascending."""
        seen = set()
        for e in self.hgraph.vertex_edges(v):
            for u in self.hgraph.edge_pins(int(e)):
                u = int(u)
                if u != v:
                    seen.add(u)
        return sorted(seen)

    def boundary_vertices(self) -> np.ndarray:
        """Vertices incident to at least one cut edge (ascending)."""
        hgraph = self.hgraph
        sizes = self.edge_sizes
        cut_edges = (self.count0 > 0) & (self.count0 < sizes)
        boundary = np.zeros(hgraph.n_vertices, dtype=bool)
        for e in np.nonzero(cut_edges)[0]:
            boundary[hgraph.edge_pins(int(e))] = True
        return np.nonzero(boundary)[0]


def fm_refine_oracle(hgraph: Hypergraph, side: np.ndarray, caps: np.ndarray,
                     passes: int = 2, stall_limit: int = 64) -> np.ndarray:
    """:func:`repro.hypergraph.refine.fm_refine` on the recomputing state."""
    state = RecomputingBisectionState(hgraph, side)
    for _ in range(passes):
        if not _fm_pass(hgraph, state, caps, stall_limit):
            break
    return side
