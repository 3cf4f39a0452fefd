"""Sort-based matching and per-size contraction: the golden coarsening model.

:func:`match_vertices_oracle` ranks every candidate pair of a seed batch
with a second stable sort on ``(seed, rank of -score)`` and checks the
weight cap with one ``(pairs x constraints)`` sum; its accept walk
takes each seed's first still-unmatched candidate in that order.
:func:`contract_oracle` drops in-edge duplicates with a ``lexsort`` on
``(pin, edge)`` and merges identical pin sets with one row-wise
``lexsort`` per distinct edge size.  The production
:mod:`repro.hypergraph.coarsen` must return the same mappings and
byte-identical coarse hypergraphs (see its module docstring for why).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.hypergraph.hgraph import Hypergraph, ragged_take


def batch_candidates_oracle(
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
    deg = ve_ptr[seeds + 1] - ve_ptr[seeds]
    inc_edges = ragged_take(ve_ids, ve_ptr[seeds], deg)
    inc_seed = np.repeat(np.arange(len(seeds)), deg)
    ok = eligible[inc_edges]
    inc_edges, inc_seed = inc_edges[ok], inc_seed[ok]
    lengths = hgraph.edge_ptr[inc_edges + 1] - hgraph.edge_ptr[inc_edges]
    neigh = ragged_take(hgraph.pins, hgraph.edge_ptr[inc_edges], lengths)
    cand_seed = np.repeat(inc_seed, lengths)
    cand_bonus = np.repeat(bonus[inc_edges], lengths)
    keep = (neigh != seeds[cand_seed]) & (matched[neigh] < 0)
    neigh, cand_seed, cand_bonus = neigh[keep], cand_seed[keep], cand_bonus[keep]
    if len(neigh) == 0:
        return neigh, neigh, cand_bonus
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
    merged = (
        hgraph.vertex_weights[seeds[cand_seed]]
        + hgraph.vertex_weights[neigh]
    )
    feasible = (merged <= max_vertex_weight).all(axis=1)
    cand_seed, neigh, score = (
        cand_seed[feasible], neigh[feasible], score[feasible]
    )
    _, rank = np.unique(-score, return_inverse=True)
    order = np.argsort(cand_seed * np.int64(len(score) + 1) + rank,
                       kind="stable")
    return cand_seed[order], neigh[order], score[order]


def match_vertices_oracle(
    hgraph: Hypergraph,
    rng: np.random.Generator,
    max_vertex_weight: np.ndarray,
    edge_size_limit: int,
    batch_size: int,
) -> np.ndarray:
    """Greedy heavy-connectivity matching over pre-ranked candidates.

    Seeds are processed ``batch_size`` at a time, as in production
    (``repro.hypergraph.coarsen._MATCH_BATCH``): each batch's scores are
    differences of its own running cumsum.
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

    for start in range(0, n, batch_size):
        batch = order[start:start + batch_size]
        batch = batch[matched[batch] < 0]
        if len(batch) == 0:
            continue
        cand_seed, cand_neigh, _ = batch_candidates_oracle(
            hgraph, batch, bonus, eligible, matched, max_vertex_weight
        )
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

    perm_pos = np.empty(n, dtype=np.int64)
    perm_pos[order] = np.arange(n)
    group_pos = perm_pos.copy()
    has = matched >= 0
    group_pos[has] = np.minimum(perm_pos[has], perm_pos[matched[has]])
    _, mapping = np.unique(group_pos, return_inverse=True)
    return mapping.astype(np.int64)


def contract_oracle(hgraph: Hypergraph, mapping: np.ndarray) -> Hypergraph:
    """Coarse hypergraph with one row-wise ``lexsort`` per edge size."""
    n_coarse = int(mapping.max()) + 1 if len(mapping) else 0
    weights = np.zeros((n_coarse, hgraph.n_constraints))
    np.add.at(weights, mapping, hgraph.vertex_weights)
    if hgraph.n_edges == 0:
        return Hypergraph.from_flat(
            n_coarse, np.empty(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.float64), weights,
        )

    coarse_pins = mapping[hgraph.pins]
    pin_edge = hgraph.pin_edge_ids()
    order = np.lexsort((coarse_pins, pin_edge))
    cp, pe = coarse_pins[order], pin_edge[order]
    keep = np.ones(len(cp), dtype=bool)
    keep[1:] = (cp[1:] != cp[:-1]) | (pe[1:] != pe[:-1])
    cp, pe = cp[keep], pe[keep]
    sizes = np.bincount(pe, minlength=hgraph.n_edges)
    keep_edge = sizes >= 2
    pin_ok = keep_edge[pe]
    cp, pe = cp[pin_ok], pe[pin_ok]
    sizes = sizes[keep_edge]
    edge_w = hgraph.edge_weights[keep_edge]

    ptr = np.concatenate(([0], np.cumsum(sizes)))
    pins_parts: List[np.ndarray] = []
    size_parts: List[np.ndarray] = []
    weight_parts: List[np.ndarray] = []
    for size in np.unique(sizes).tolist():
        group = np.nonzero(sizes == size)[0]
        rows = cp[ptr[group][:, None] + np.arange(size)[None, :]]
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
