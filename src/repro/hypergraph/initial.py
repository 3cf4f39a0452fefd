"""Initial bisection of the coarsest hypergraph.

Greedy region growing: seed one side with a random vertex and grow it
by repeatedly absorbing the unassigned vertex with the strongest
accumulated hyperedge connectivity to the grown side, until the target
weight fraction is reached.  Several seeds are tried and the lowest-cut
result kept.

The growth loop mirrors the FM pass's lazy-deletion heap: per absorbed
vertex, one :func:`ragged_take` gather pulls the incident edges' pins,
an ``np.add.at`` scatter accumulates the connectivity scores, and each
touched neighbor is (re-)pushed once per wave — no per-(edge, pin)
Python loop.  Edges larger than the growth limit are skipped when
scoring (``PartitionerOptions.growth_edge_size_limit``).

Layer contract: ``initial`` sits above ``hgraph``/``metrics`` and below
``partitioner`` (see ``tools/check_layers.py``).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.hypergraph.hgraph import Hypergraph, ragged_take
from repro.hypergraph.metrics import connectivity_cut

#: Default cap on hyperedge size during region growing; larger edges
#: contribute negligible per-pin connectivity.  Tunable per run via
#: ``PartitionerOptions.growth_edge_size_limit``.
DEFAULT_GROWTH_EDGE_SIZE_LIMIT = 256


def _grow_once(hgraph: Hypergraph, target_fraction: float,
               caps0: np.ndarray, rng: np.random.Generator,
               edge_size_limit: int = DEFAULT_GROWTH_EDGE_SIZE_LIMIT,
               ) -> np.ndarray:
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

    #: Accumulated connectivity of each unassigned vertex to side 0.
    score = np.zeros(n)

    def fits(v: int) -> bool:
        return bool(((weight0 + vertex_weights[v]) <= caps0).all())

    def reached_target() -> bool:
        # Grown far enough once the dominant constraint hits its target.
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
        # Accumulate the connectivity v's edges contribute to side 0,
        # then (re-)push each touched neighbor once for this wave.
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


def greedy_bisect(hgraph: Hypergraph, target_fraction: float,
                  caps0: np.ndarray, rng: np.random.Generator,
                  tries: int = 4,
                  edge_size_limit: int = DEFAULT_GROWTH_EDGE_SIZE_LIMIT,
                  ) -> np.ndarray:
    """Best-of-``tries`` greedy growth bisection."""
    best_side = None
    best_cut = np.inf
    for _ in range(max(tries, 1)):
        side = _grow_once(
            hgraph, target_fraction, caps0, rng,
            edge_size_limit=edge_size_limit,
        )
        cut = connectivity_cut(hgraph, side.astype(np.int64))
        if cut < best_cut:
            best_cut = cut
            best_side = side
    assert best_side is not None
    return best_side
