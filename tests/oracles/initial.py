"""Array-at-a-time region growing: the golden initial-bisection model.

:func:`grow_once_oracle` keeps every per-wave quantity in numpy arrays:
one :func:`ragged_take` gather of the absorbed vertex's incident pins,
an ``np.add.at`` score scatter, and an ``np.unique`` re-push set.  The
production :func:`repro.hypergraph.initial._grow_once` runs the same
algorithm with scalar list updates in the same (edge, pin) order, so
the two must return identical sides and leave identically seeded
generators in the same state.  :func:`greedy_bisect_oracle` is
:func:`repro.hypergraph.initial.greedy_bisect` over this growth.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.hypergraph.hgraph import Hypergraph, ragged_take
from repro.hypergraph.metrics import connectivity_cut


def grow_once_oracle(hgraph: Hypergraph, target_fraction: float,
                     caps0: np.ndarray, rng: np.random.Generator,
                     edge_size_limit: int) -> np.ndarray:
    """One region-growing attempt; returns a side array (0 or 1)."""
    n = hgraph.n_vertices
    side = np.ones(n, dtype=np.int8)
    totals = hgraph.total_weights()
    nonzero = totals > 0
    thresh = (totals * target_fraction * 0.98)[nonzero]
    weight0 = np.zeros(hgraph.n_constraints)
    vertex_weights = hgraph.vertex_weights

    sizes = hgraph.edge_sizes()
    eligible = (sizes >= 2) & (sizes <= edge_size_limit)
    bonus = np.zeros(hgraph.n_edges)
    bonus[eligible] = hgraph.edge_weights[eligible] / np.maximum(
        sizes[eligible] - 1, 1
    )
    ve_ptr, ve_ids = hgraph.incidence_arrays()
    score = np.zeros(n)

    def fits(v: int) -> bool:
        return bool(((weight0 + vertex_weights[v]) <= caps0).all())

    def reached_target() -> bool:
        return bool((weight0[nonzero] >= thresh).all())

    seed = int(rng.integers(n))
    heap = [(0.0, seed)]

    while heap and not reached_target():
        neg, v = heapq.heappop(heap)
        if side[v] == 0:
            continue
        if -neg != score[v]:
            heapq.heappush(heap, (-float(score[v]), v))
            continue
        if not fits(v):
            continue
        side[v] = 0
        weight0 += vertex_weights[v]
        edges = ve_ids[ve_ptr[v]:ve_ptr[v + 1]]
        edges = edges[eligible[edges]]
        if len(edges):
            lengths = sizes[edges]
            pv = ragged_take(hgraph.pins, hgraph.edge_ptr[edges], lengths)
            b = np.repeat(bonus[edges], lengths)
            outside = side[pv] == 1
            np.add.at(score, pv[outside], b[outside])
            for u in np.unique(pv[outside]):
                u = int(u)
                heapq.heappush(heap, (-float(score[u]), u))
        if not heap:
            # Disconnected: restart growth from a fresh unassigned vertex.
            remaining = np.nonzero(side == 1)[0]
            if len(remaining) and not reached_target():
                heapq.heappush(heap, (0.0, int(rng.choice(remaining))))
    return side


def greedy_bisect_oracle(hgraph: Hypergraph, target_fraction: float,
                         caps0: np.ndarray, rng: np.random.Generator,
                         tries: int = 4,
                         edge_size_limit: int = 256) -> np.ndarray:
    """Best-of-``tries`` :func:`grow_once_oracle` by connectivity cut."""
    best_side, best_cut = None, np.inf
    for _ in range(max(tries, 1)):
        side = grow_once_oracle(hgraph, target_fraction, caps0, rng,
                                edge_size_limit)
        cut = connectivity_cut(hgraph, side.astype(np.int64))
        if cut < best_cut:
            best_side, best_cut = side, cut
    return best_side
