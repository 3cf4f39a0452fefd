"""Initial bisection of the coarsest hypergraph.

Greedy region growing: seed one side with a random vertex and grow it
by repeatedly absorbing the unassigned vertex with the strongest
accumulated hyperedge connectivity to the grown side, until the target
weight fraction is reached.  Several seeds are tried and the lowest-cut
result kept; each try's connectivity cut comes from one ``bincount``
of its side-0 pins (:func:`_bisection_cut`), not a sort of every pin.

The growth loop mirrors the FM pass's lazy-deletion heap on Python
lists: per absorbed vertex, a scalar loop over the incident edges'
pins accumulates the connectivity scores, and each touched neighbor
is (re-)pushed once per wave.  The target check reruns only after an
absorption.  :func:`greedy_bisect` builds the lookup tables once for
all its tries (:class:`_GrowthTables`): the list CSR restricted to the
edges growth scores, their per-pin bonuses, the vertex weights, caps
and per-constraint targets.  The cap and target checks are plain loops
that compare in constraint order and stop at the first failure, as the
``all()`` over a generator they replace did.

Scores receive their additions in (edge, pin) order, and heap pops
depend only on the set of ``(-score, vertex)`` entries, so the result
is bit-identical to the array-at-a-time formulation kept as a test
oracle (``tests/oracles/initial.py``), on any weights, with the same
generator draws.  Edges larger than the growth limit are skipped when
scoring (``PartitionerOptions.growth_edge_size_limit``).

Layer contract: ``initial`` sits above ``hgraph``/``metrics`` and below
``partitioner`` (see ``tools/check_layers.py``).
"""

from __future__ import annotations

import heapq
from typing import List, NamedTuple, Tuple

import numpy as np

from repro.hypergraph.hgraph import Hypergraph

#: Default cap on hyperedge size during region growing; larger edges
#: contribute negligible per-pin connectivity.  Tunable per run via
#: ``PartitionerOptions.growth_edge_size_limit``.
DEFAULT_GROWTH_EDGE_SIZE_LIMIT = 256


class _GrowthTables(NamedTuple):
    """Per-bisection lookups shared by every growth attempt."""

    pins: List[int]
    edge_ptr: List[int]
    #: Vertex -> incident edges, restricted to the edges growth scores
    #: (2 to ``edge_size_limit`` pins), in incidence order.
    grow_ptr: List[int]
    grow_ids: List[int]
    #: Per-pin connectivity bonus of each edge: ``w / (size - 1)``.
    bonus: List[float]
    vertex_weights: List[List[float]]
    caps: List[float]
    #: ``(constraint, threshold)`` of every constraint with weight.
    targets: List[Tuple[int, float]]


def _growth_tables(hgraph: Hypergraph, target_fraction: float,
                   caps0: np.ndarray, edge_size_limit: int) -> _GrowthTables:
    """The lookups of :func:`_grow_once` for one bisection problem."""
    totals = hgraph.total_weights()
    thresh = (totals * target_fraction * 0.98).tolist()
    sizes = hgraph.edge_sizes()
    eligible = (sizes >= 2) & (sizes <= edge_size_limit)
    bonus = np.zeros(hgraph.n_edges)
    bonus[eligible] = hgraph.edge_weights[eligible] / np.maximum(
        sizes[eligible] - 1, 1
    )
    ve_ptr, ve_ids = hgraph.incidence_arrays()
    kept = eligible[ve_ids]
    grow_ptr = np.concatenate(([0], np.cumsum(kept)))[ve_ptr]
    pins, edge_ptr, _, _ = hgraph.csr_lists()
    return _GrowthTables(
        pins, edge_ptr, grow_ptr.tolist(), ve_ids[kept].tolist(),
        bonus.tolist(), hgraph.vertex_weights.tolist(), caps0.tolist(),
        [(c, thresh[c]) for c in np.flatnonzero(totals > 0).tolist()],
    )


def _grow_once(tables: _GrowthTables,
               rng: np.random.Generator) -> np.ndarray:
    """One region-growing attempt; returns a side array (0 or 1)."""
    (pins, edge_ptr, grow_ptr, grow_ids, bonus, vertex_weights, caps,
     targets) = tables
    heappop, heappush = heapq.heappop, heapq.heappush
    n = len(vertex_weights)
    constraints = range(len(caps))
    side = [1] * n
    weight0 = [0.0] * len(caps)
    #: Accumulated connectivity of each unassigned vertex to side 0.
    score = [0.0] * n

    seed = int(rng.integers(n))
    heap = [(0.0, seed)]
    # Grown far enough once every weighted constraint hits its target.
    for c, t in targets:
        if not weight0[c] >= t:
            break
    else:
        heap = []

    while heap:
        neg, v = heappop(heap)
        if side[v] == 0:
            continue
        s = score[v]
        if -neg != s:
            heappush(heap, (-s, v))
            continue
        weight = vertex_weights[v]
        for c in constraints:
            if not weight0[c] + weight[c] <= caps[c]:
                break
        else:
            side[v] = 0
            for c, x in enumerate(weight):
                weight0[c] += x
            for c, t in targets:
                if not weight0[c] >= t:
                    break
            else:
                break
            # Accumulate the connectivity v's edges contribute to side 0,
            # in (edge, pin) order, then (re-)push each touched neighbor
            # once for this wave.
            touched = set()
            add = touched.add
            for e in grow_ids[grow_ptr[v]:grow_ptr[v + 1]]:
                b = bonus[e]
                for u in pins[edge_ptr[e]:edge_ptr[e + 1]]:
                    if side[u] == 1:
                        score[u] += b
                        add(u)
            for u in touched:
                heappush(heap, (-score[u], u))
            if not heap:
                # Disconnected: restart growth from a fresh unassigned
                # vertex.
                remaining = np.flatnonzero(np.array(side) == 1)
                if len(remaining):
                    heappush(heap, (0.0, int(rng.choice(remaining))))
    return np.array(side, dtype=np.int8)


def _bisection_cut(hgraph: Hypergraph, side: np.ndarray) -> float:
    """:func:`~repro.hypergraph.metrics.connectivity_cut` of a bisection.

    An edge spans side 0 when it has a side-0 pin and side 1 when not
    all its pins are, so one ``bincount`` of side-0 pins gives each
    edge's part count.  The ``max(lambda - 1, 0) * w`` array and its
    sum are ``connectivity_cut``'s, so the two agree bit for bit.
    """
    count0 = np.bincount(hgraph.pin_edge_ids()[side[hgraph.pins] == 0],
                         minlength=hgraph.n_edges)
    lambdas = (count0 > 0) + (count0 < hgraph.edge_sizes()).astype(np.int64)
    excess = np.maximum(lambdas - 1, 0)
    return float((excess * hgraph.edge_weights).sum())


def greedy_bisect(hgraph: Hypergraph, target_fraction: float,
                  caps0: np.ndarray, rng: np.random.Generator,
                  tries: int = 4,
                  edge_size_limit: int = DEFAULT_GROWTH_EDGE_SIZE_LIMIT,
                  ) -> np.ndarray:
    """Best-of-``tries`` greedy growth bisection."""
    tables = _growth_tables(hgraph, target_fraction, caps0, edge_size_limit)
    best_side = None
    best_cut = np.inf
    for _ in range(max(tries, 1)):
        side = _grow_once(tables, rng)
        cut = _bisection_cut(hgraph, side)
        if cut < best_cut:
            best_cut = cut
            best_side = side
    assert best_side is not None
    return best_side
