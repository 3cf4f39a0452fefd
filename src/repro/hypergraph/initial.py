"""Initial bisection of the coarsest hypergraph.

Greedy region growing: seed one side with a random vertex and grow it
by repeatedly absorbing the unassigned vertex with the strongest
accumulated hyperedge connectivity to the grown side, until the target
weight fraction is reached.  Several seeds are tried and the lowest-cut
result kept.

The growth loop mirrors the FM pass's lazy-deletion heap on Python
lists: per absorbed vertex, a scalar loop over the incident edges'
pins accumulates the connectivity scores, and each touched neighbor
is (re-)pushed once per wave.  The target check reruns only after an
absorption.  Scores receive their additions in (edge, pin) order, and
heap pops depend only on the set of ``(-score, vertex)`` entries, so
the result is bit-identical to the array-at-a-time formulation kept as
a test oracle (``tests/oracles/initial.py``).  Edges larger than the
growth limit are skipped when scoring
(``PartitionerOptions.growth_edge_size_limit``).

Layer contract: ``initial`` sits above ``hgraph``/``metrics`` and below
``partitioner`` (see ``tools/check_layers.py``).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.hypergraph.hgraph import Hypergraph
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
    side = [1] * n
    totals = hgraph.total_weights()
    weighted = np.flatnonzero(totals > 0).tolist()
    thresh = (totals * target_fraction * 0.98).tolist()
    weight0 = [0.0] * hgraph.n_constraints
    vertex_weights = hgraph.vertex_weights.tolist()
    caps = caps0.tolist()

    sizes = hgraph.edge_sizes()
    eligible = (sizes >= 2) & (sizes <= edge_size_limit)
    bonus = np.zeros(hgraph.n_edges)
    bonus[eligible] = hgraph.edge_weights[eligible] / np.maximum(
        sizes[eligible] - 1, 1
    )
    eligible_list, bonus_list = eligible.tolist(), bonus.tolist()
    pins, edge_ptr, ve_ptr, ve_ids = hgraph.csr_lists()

    #: Accumulated connectivity of each unassigned vertex to side 0.
    score = [0.0] * n

    def reached_target() -> bool:
        # Grown far enough once the dominant constraint hits its target.
        return all(weight0[c] >= thresh[c] for c in weighted)

    seed = int(rng.integers(n))
    heap = [(0.0, seed)]
    done = reached_target()

    while heap and not done:
        neg, v = heapq.heappop(heap)
        if side[v] == 0:
            continue
        if -neg != score[v]:
            heapq.heappush(heap, (-score[v], v))
            continue
        weight = vertex_weights[v]
        if not all(weight0[c] + x <= caps[c] for c, x in enumerate(weight)):
            continue
        side[v] = 0
        for c, x in enumerate(weight):
            weight0[c] += x
        done = reached_target()
        # Accumulate the connectivity v's edges contribute to side 0,
        # in (edge, pin) order, then (re-)push each touched neighbor
        # once for this wave.
        touched = set()
        for e in ve_ids[ve_ptr[v]:ve_ptr[v + 1]]:
            if eligible_list[e]:
                b = bonus_list[e]
                for u in pins[edge_ptr[e]:edge_ptr[e + 1]]:
                    if side[u] == 1:
                        score[u] += b
                        touched.add(u)
        for u in touched:
            heapq.heappush(heap, (-score[u], u))
        if not heap and not done:
            # Disconnected: restart growth from a fresh unassigned vertex.
            remaining = np.flatnonzero(np.array(side) == 1)
            if len(remaining):
                heapq.heappush(heap, (0.0, int(rng.choice(remaining))))
    return np.array(side, dtype=np.int8)


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
