"""Coarsening phase of the multilevel partitioner.

Pairs of vertices with the strongest hyperedge connectivity are merged,
shrinking the hypergraph until the initial-partitioning phase becomes
cheap.  The connectivity score between two vertices sharing edge ``e``
is ``w_e / (|e| - 1)`` (the classic heavy-connectivity matching used by
hMETIS/PaToH-style partitioners), summed over shared edges.

Both halves of the phase run on the flat CSR arrays:

* :func:`match_vertices` visits seed vertices in one random permutation
  (same greedy semantics as the historical per-vertex dict scan), but
  processes them in *batches*: one :func:`ragged_take` gather pulls the
  batch's candidate ``(seed, neighbor)`` incidences, a sort +
  segment-sum accumulates connectivity scores per candidate pair, a
  vectorized weight-cap precheck filters infeasible merges, and one
  stable sort on ``(seed, rank of -score)`` orders the candidates —
  only the final accept/reject walk (which must see earlier matches)
  stays in Python, one short candidate scan per seed.
* :func:`contract` deduplicates re-pinned edges with ``lexsort``
  passes instead of a ``tobytes()`` dict: in-edge duplicates drop via
  one sorted-neighbor comparison, identical pin sets merge per edge
  size (a row-wise ``lexsort`` in ``np.unique(axis=0)``'s order), and
  the coarse hypergraph is assembled with :meth:`Hypergraph.from_flat`
  (skipping the per-edge normalization of ``Hypergraph.__init__``).

Layer contract: ``coarsen`` sits above ``hgraph``/``metrics`` and below
``partitioner`` (see ``tools/check_layers.py``).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.hypergraph.hgraph import Hypergraph, ragged_take

#: Default cap on hyperedge size during matching: larger edges carry
#: negligible per-pin connectivity and scanning them dominates runtime.
#: Tunable per run via ``PartitionerOptions.matching_edge_size_limit``.
DEFAULT_MATCHING_EDGE_SIZE_LIMIT = 64

#: Seed vertices whose candidates are gathered per vectorized batch.
_MATCH_BATCH = 4096


def _batch_candidates(
    hgraph: Hypergraph,
    seeds: np.ndarray,
    bonus: np.ndarray,
    eligible: np.ndarray,
    matched: np.ndarray,
    max_vertex_weight: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scored, feasible merge candidates for a batch of seed vertices.

    Returns ``(seed_pos, neighbor, score)`` sorted so that each seed's
    candidates are contiguous in batch order, best score first (ties to
    the lowest neighbor id).  ``seed_pos`` indexes into ``seeds``.
    """
    ve_ptr, ve_ids = hgraph.incidence_arrays()
    # Incident eligible edges of every seed, flattened.
    deg = ve_ptr[seeds + 1] - ve_ptr[seeds]
    inc_edges = ragged_take(ve_ids, ve_ptr[seeds], deg)
    inc_seed = np.repeat(np.arange(len(seeds)), deg)
    ok = eligible[inc_edges]
    inc_edges, inc_seed = inc_edges[ok], inc_seed[ok]
    # Pins of those edges: the candidate neighbors.
    lengths = hgraph.edge_ptr[inc_edges + 1] - hgraph.edge_ptr[inc_edges]
    neigh = ragged_take(hgraph.pins, hgraph.edge_ptr[inc_edges], lengths)
    cand_seed = np.repeat(inc_seed, lengths)
    cand_bonus = np.repeat(bonus[inc_edges], lengths)
    # Drop self-pairs and already-matched neighbors (batch-start state;
    # matches made inside the batch are re-checked in the accept walk).
    keep = (neigh != seeds[cand_seed]) & (matched[neigh] < 0)
    neigh, cand_seed, cand_bonus = neigh[keep], cand_seed[keep], cand_bonus[keep]
    if len(neigh) == 0:
        return neigh, neigh, cand_bonus
    # Accumulate scores per (seed, neighbor) pair: sort by the pair key
    # and segment-sum the bonuses.
    key = cand_seed * np.int64(hgraph.n_vertices) + neigh
    order = np.argsort(key, kind="stable")
    key, neigh = key[order], neigh[order]
    cand_seed, cand_bonus = cand_seed[order], cand_bonus[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    starts = np.nonzero(first)[0]
    csum = np.concatenate(([0.0], np.cumsum(cand_bonus)))
    bounds = np.concatenate((starts, [len(key)]))
    score = csum[bounds[1:]] - csum[bounds[:-1]]
    cand_seed, neigh = cand_seed[starts], neigh[starts]
    # Weight-cap feasibility is static (merging never lightens a
    # vertex), so infeasible pairs are filtered here, vectorized.
    merged = (
        hgraph.vertex_weights[seeds[cand_seed]]
        + hgraph.vertex_weights[neigh]
    )
    feasible = (merged <= max_vertex_weight).all(axis=1)
    cand_seed, neigh, score = (
        cand_seed[feasible], neigh[feasible], score[feasible]
    )
    # Batch order, then best score, ties to the lowest neighbor id: the
    # pairs are already (seed, neighbor)-sorted, so one stable sort on
    # (seed, rank of -score) keeps the neighbor tie-break.
    _, rank = np.unique(-score, return_inverse=True)
    order = np.argsort(cand_seed * np.int64(len(score) + 1) + rank,
                       kind="stable")
    return cand_seed[order], neigh[order], score[order]


def match_vertices(
    hgraph: Hypergraph,
    rng: np.random.Generator,
    max_vertex_weight: np.ndarray,
    edge_size_limit: int = DEFAULT_MATCHING_EDGE_SIZE_LIMIT,
) -> np.ndarray:
    """Greedy heavy-connectivity matching.

    Returns ``mapping`` where ``mapping[v]`` is the coarse-vertex id of
    ``v``; matched pairs share an id.  A merge is rejected when it would
    exceed ``max_vertex_weight`` in any constraint (prevents giant
    coarse vertices that make balance infeasible).

    Seeds are visited in one random permutation; each merges with its
    highest-connectivity unmatched feasible neighbor.  Edges larger
    than ``edge_size_limit`` are ignored when scoring.
    """
    n = hgraph.n_vertices
    matched = np.full(n, -1, dtype=np.int64)
    sizes = hgraph.edge_sizes()
    eligible = (sizes >= 2) & (sizes <= edge_size_limit)
    bonus = np.zeros(hgraph.n_edges)
    bonus[eligible] = (
        hgraph.edge_weights[eligible] / (sizes[eligible] - 1)
    )
    order = rng.permutation(n)

    for start in range(0, n, _MATCH_BATCH):
        batch = order[start:start + _MATCH_BATCH]
        batch = batch[matched[batch] < 0]
        if len(batch) == 0:
            continue
        cand_seed, cand_neigh, _ = _batch_candidates(
            hgraph, batch, bonus, eligible, matched, max_vertex_weight
        )
        # Accept walk: per seed (in batch = permutation order), take the
        # best candidate still unmatched.  Candidates are contiguous per
        # seed and pre-sorted, so this is one forward scan.
        bounds = np.searchsorted(
            cand_seed, np.arange(len(batch) + 1), side="left"
        ).tolist()
        candidates = cand_neigh.tolist()
        for i, v in enumerate(batch.tolist()):
            if matched[v] >= 0:
                continue
            for u in candidates[bounds[i]:bounds[i + 1]]:
                if matched[u] < 0:
                    matched[v] = u
                    matched[u] = v
                    break

    # Coarse ids in permutation-visit order of each pair's first-seen
    # member (mirrors the historical next_id counter), vectorized via a
    # rank over first-visit positions.
    perm_pos = np.empty(n, dtype=np.int64)
    perm_pos[order] = np.arange(n)
    group_pos = perm_pos.copy()
    has = matched >= 0
    group_pos[has] = np.minimum(perm_pos[has], perm_pos[matched[has]])
    _, mapping = np.unique(group_pos, return_inverse=True)
    return mapping.astype(np.int64)


def contract(hgraph: Hypergraph, mapping: np.ndarray) -> Hypergraph:
    """Build the coarse hypergraph induced by a vertex mapping.

    Coarse vertex weights are sums of their members'.  Edges are
    re-pinned, deduplicated (identical pin sets merge, weights summed),
    and single-pin edges dropped (they can never be cut).
    """
    n_coarse = int(mapping.max()) + 1 if len(mapping) else 0
    weights = np.zeros((n_coarse, hgraph.n_constraints))
    np.add.at(weights, mapping, hgraph.vertex_weights)
    if hgraph.n_edges == 0:
        return Hypergraph.from_flat(
            n_coarse, np.empty(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.float64), weights,
        )

    # Re-pin, then drop in-edge duplicates: sort pins within each edge
    # (stable lexsort on (pin, edge)) and keep each (edge, pin) once.
    coarse_pins = mapping[hgraph.pins]
    pin_edge = hgraph.pin_edge_ids()
    order = np.lexsort((coarse_pins, pin_edge))
    cp, pe = coarse_pins[order], pin_edge[order]
    keep = np.ones(len(cp), dtype=bool)
    keep[1:] = (cp[1:] != cp[:-1]) | (pe[1:] != pe[:-1])
    cp, pe = cp[keep], pe[keep]
    # Drop edges contracted below two pins.
    sizes = np.bincount(pe, minlength=hgraph.n_edges)
    keep_edge = sizes >= 2
    pin_ok = keep_edge[pe]
    cp, pe = cp[pin_ok], pe[pin_ok]
    sizes = sizes[keep_edge]
    edge_w = hgraph.edge_weights[keep_edge]

    # Cross-edge dedup: identical pin sets necessarily share a size, so
    # group by size and unique the (m, size) pin matrices row-wise.
    ptr = np.concatenate(([0], np.cumsum(sizes)))
    pins_parts: List[np.ndarray] = []
    size_parts: List[np.ndarray] = []
    weight_parts: List[np.ndarray] = []
    for size in np.unique(sizes).tolist():
        group = np.nonzero(sizes == size)[0]
        rows = cp[ptr[group][:, None] + np.arange(size)[None, :]]
        # Rows in lexicographic order (that of np.unique(axis=0), at a
        # fraction of its per-call cost); weights of identical rows are
        # summed in original edge order.
        order = np.lexsort(rows.T[::-1])
        rows = rows[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        inverse = np.empty(len(rows), dtype=np.int64)
        inverse[order] = np.cumsum(first) - 1
        pins_parts.append(rows[first].reshape(-1))
        size_parts.append(np.full(int(first.sum()), size, dtype=np.int64))
        weight_parts.append(np.bincount(inverse, weights=edge_w[group]))

    if pins_parts:
        flat_pins = np.concatenate(pins_parts)
        flat_sizes = np.concatenate(size_parts)
        flat_weights = np.concatenate(weight_parts)
    else:
        flat_pins = np.empty(0, dtype=np.int64)
        flat_sizes = np.empty(0, dtype=np.int64)
        flat_weights = np.empty(0, dtype=np.float64)
    edge_ptr = np.concatenate(([0], np.cumsum(flat_sizes)))
    return Hypergraph.from_flat(
        n_coarse, flat_pins, edge_ptr, flat_weights, weights
    )


def coarsen(hgraph: Hypergraph, rng: np.random.Generator,
            stop_at: int = 96, max_levels: int = 24,
            matching_edge_size_limit: int = DEFAULT_MATCHING_EDGE_SIZE_LIMIT):
    """Repeatedly match-and-contract until the hypergraph is small.

    Returns ``(levels, mappings)`` where ``levels[0]`` is the input and
    ``levels[-1]`` the coarsest hypergraph; ``mappings[i]`` projects
    level ``i`` vertices onto level ``i+1``.  Stops early when a round
    shrinks the vertex count by less than 10% (matching has stalled).
    """
    levels = [hgraph]
    mappings = []
    totals = hgraph.total_weights()
    # No coarse vertex may exceed ~1/8 of any constraint's total weight.
    max_vertex_weight = np.maximum(totals / 8.0, hgraph.vertex_weights.max(axis=0))
    current = hgraph
    for _ in range(max_levels):
        if current.n_vertices <= stop_at:
            break
        mapping = match_vertices(
            current, rng, max_vertex_weight,
            edge_size_limit=matching_edge_size_limit,
        )
        n_coarse = int(mapping.max()) + 1
        if n_coarse > 0.9 * current.n_vertices:
            break
        coarse = contract(current, mapping)
        levels.append(coarse)
        mappings.append(mapping)
        current = coarse
    return levels, mappings
