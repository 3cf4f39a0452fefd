"""Coarsening phase of the multilevel partitioner.

Pairs of vertices with the strongest hyperedge connectivity are merged,
shrinking the hypergraph until the initial-partitioning phase becomes
cheap.  The connectivity score between two vertices sharing edge ``e``
is ``w_e / (|e| - 1)`` (the classic heavy-connectivity matching used by
hMETIS/PaToH-style partitioners), summed over shared edges.

Both halves of the phase run on the flat CSR arrays:

* :func:`match_vertices` visits seed vertices in one random permutation
  (same greedy semantics as the historical per-vertex dict scan), but
  processes them in *batches*: :func:`ragged_take` gathers the
  candidate ``(seed, neighbor)`` incidences and a sort + segment-sum
  accumulates connectivity scores per candidate pair.  The weight cap
  is checked only for pairs with a *heavy* member (above half the cap
  in some constraint): two light vertices always fit, because
  ``0.5 * cap`` is exact and rounding is monotone.  The accept walk,
  which must see earlier matches, runs in Python: each unmatched seed
  takes its best-scoring unmatched neighbor, ties to the lowest
  neighbor id.  A batch fixes two things the matching depends on:
  neighbors matched before the batch are filtered out, those matched
  inside it only by the walk, and its scores are differences of one
  running cumsum that restarts at each batch.  Within a batch, pairs
  are built, scored and walked in chunks of consecutive seeds that fit
  ``_PAIR_BUDGET``; the cumsum carries over from chunk to chunk, so
  chunks bound memory and change nothing else.

  Three shortcuts keep the matching bit-identical:

  - *One sort per chunk.*  Every raw pair is one int64 key with bit
    fields (seed, neighbor, incidence), the incidence being the
    ``(seed, edge)`` it came from.  An edge holds a vertex once, so the
    keys are unique, and one plain ``np.sort`` puts equal
    ``(seed, neighbor)`` pairs in incidence order, the order a stable
    sort of ``(seed, neighbor)`` keys gives.  Each bonus is read
    through the incidence field, so the cumsum adds the same values in
    the same order.
  - *No filter in the first batch.*  Before it no vertex is matched,
    so the batch-start filter would keep every pair.  A hypergraph of
    at most ``_MATCH_BATCH`` vertices has no other batch.
  - *First choices.*  Each seed's first choice is computed per chunk,
    vectorized: the first pair (lowest neighbor id) holding the seed's
    top score, if that beats ``-inf``.  While it is unmatched, the walk
    takes it: no neighbor scores higher, and none before it ties, so
    the strict-``>`` scan over the seed's still-unmatched neighbors
    would pick it too.  Otherwise the walk runs that scan over the
    seed's pairs alone; no chunk turns all its pairs into lists.
* :func:`contract` drops re-pinned in-edge duplicates with one sort of
  ``edge * n_coarse + pin`` keys.  Identical pin sets merge through one
  sort per power-of-two width class of big-endian ``(size, pins...)``
  rows viewed as ``np.void``: their byte order is ``(size, pins)``
  order, that of a per-size ``np.unique(axis=0)``.  Merged weights are
  one ``bincount`` in edge order, and the coarse hypergraph is
  assembled with :meth:`Hypergraph.from_flat`.

The sort-ranked matcher and the per-size contraction these replace are
the test oracles of ``tests/oracles/coarsen.py``; both return the same
mappings and byte-identical coarse hypergraphs.

Layer contract: ``coarsen`` sits above ``hgraph``/``metrics`` and below
``partitioner`` (see ``tools/check_layers.py``).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import PartitionError
from repro.hypergraph.hgraph import Hypergraph, ragged_take

#: Default cap on hyperedge size during matching: larger edges carry
#: negligible per-pin connectivity and scanning them dominates runtime.
#: Tunable per run via ``PartitionerOptions.matching_edge_size_limit``.
DEFAULT_MATCHING_EDGE_SIZE_LIMIT = 64

#: Seed vertices whose candidates are gathered per vectorized batch.
#: A batch fixes what a match can depend on besides the visit order:
#: the ``matched`` state its neighbor filter reads (that of the batch
#: start) and where the running score cumsum restarts.  Shrinking it
#: would move placements.
_MATCH_BATCH = 4096

#: Candidate pairs built, scored and walked at once.  A batch is split
#: into chunks of consecutive seeds whose pairs fit this budget (a lone
#: seed may exceed it).  Chunks bound memory only: any budget gives the
#: same matching.
_PAIR_BUDGET = 1 << 15


def _batch_candidates(
    hgraph: Hypergraph,
    seeds: np.ndarray,
    bonus: np.ndarray,
    eligible: np.ndarray,
    matched: Optional[np.ndarray],
    max_vertex_weight: np.ndarray,
    light: np.ndarray,
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                    np.ndarray]]:
    """Scored merge candidates for a batch of seed vertices, in chunks.

    Yields ``(chunk, bounds, neighbor, score, choice)`` for consecutive
    runs ``chunk`` of ``seeds``: one ``(neighbor, score)`` entry per
    pair, in ``(seed, neighbor)`` order, seed ``chunk[i]``'s pairs at
    ``bounds[i]:bounds[i + 1]``; pairs over ``max_vertex_weight`` score
    ``-inf``.  ``choice[i]`` is the first choice of ``chunk[i]``: its
    highest-scoring neighbor, ties to the lowest id, or -1 when no
    score beats ``-inf``.  ``light`` marks the vertices within half the
    cap in every constraint.  Each chunk reads ``matched`` when it is
    built, so the caller writes it only after the last chunk: every
    chunk then filters by the batch-start state.  ``matched`` is
    ``None`` while no vertex is matched.
    """
    n = hgraph.n_vertices
    ve_ptr, ve_ids = hgraph.incidence_arrays()
    # Incident eligible edges of every seed, flattened.
    deg = ve_ptr[seeds + 1] - ve_ptr[seeds]
    inc_edges = ragged_take(ve_ids, ve_ptr[seeds], deg)
    inc_seed = np.repeat(np.arange(len(seeds)), deg)
    ok = eligible[inc_edges]
    inc_edges, inc_seed = inc_edges[ok], inc_seed[ok]
    lengths = hgraph.edge_ptr[inc_edges + 1] - hgraph.edge_ptr[inc_edges]
    # Each seed's first incidence, and the pins of all incidences before
    # it: a seed has at most as many pairs as its edges have pins.
    # Chunks are the longest runs of seeds within the pair budget.
    inc_ptr = np.searchsorted(inc_seed, np.arange(len(seeds) + 1)).tolist()
    pair_ptr = np.concatenate(([0], np.cumsum(lengths)))[inc_ptr].tolist()
    cuts = [0]
    while cuts[-1] < len(seeds):
        lo = cuts[-1]
        cuts.append(max(lo + 1, bisect_right(
            pair_ptr, pair_ptr[lo] + _PAIR_BUDGET) - 1))
    neigh_bits = (n - 1).bit_length()
    carry = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        chunk = seeds[lo:hi]
        inc = slice(inc_ptr[lo], inc_ptr[hi])
        edges, edge_len = inc_edges[inc], lengths[inc]
        seed_pos = inc_seed[inc] - lo
        # One unique int64 key per raw pair, bit fields (seed, neighbor,
        # incidence): a plain sort gives the stable (seed, neighbor)
        # order (see the module docstring).
        inc_bits = (len(edges) - 1).bit_length()
        if (len(chunk) - 1).bit_length() + neigh_bits + inc_bits > 63:
            raise PartitionError("hypergraph too large for int64 pair keys")
        head = ((seed_pos << (neigh_bits + inc_bits))
                | np.arange(len(edges)))
        neigh = ragged_take(hgraph.pins, hgraph.edge_ptr[edges], edge_len)
        # Drop self-pairs and, after the first batch, already-matched
        # neighbors (batch-start state; matches made inside the batch
        # are re-checked in the accept walk).
        keep = neigh != np.repeat(chunk[seed_pos], edge_len)
        if matched is not None:
            keep &= matched[neigh] < 0
        key = np.sort((np.repeat(head, edge_len) | (neigh << inc_bits))[keep])
        # Accumulate scores per (seed, neighbor) pair: segment-sum the
        # bonuses, read through each key's incidence.  Scores are
        # differences of one running cumsum over the batch; near-ties
        # depend on its rounding.  Chunks hold consecutive seeds, so
        # their sorted pairs are consecutive runs of the batch's, and a
        # sequential cumsum that starts from the previous chunk's total
        # continues the batch's bit for bit (adding that total
        # afterwards would round differently).
        pair = key >> inc_bits
        first = np.ones(len(pair), dtype=bool)
        first[1:] = pair[1:] != pair[:-1]
        starts = np.nonzero(first)[0]
        pair_bonus = bonus[edges][key & ((1 << inc_bits) - 1)]
        csum = np.cumsum(np.concatenate(([carry], pair_bonus)))
        carry = csum[-1]
        score = np.diff(csum[np.append(starts, len(key))])
        pair = pair[starts]
        cand_seed, neigh = pair >> neigh_bits, pair & ((1 << neigh_bits) - 1)
        # Weight-cap feasibility is static (merging never lightens a
        # vertex).  Two light vertices always fit, so only pairs with a
        # heavy member are summed and compared; infeasible pairs score
        # -inf, which the accept walk's strict ``>`` never takes.
        if not light.all():
            heavy = np.nonzero(~(light[chunk][cand_seed] & light[neigh]))[0]
            merged = (hgraph.vertex_weights[chunk[cand_seed[heavy]]]
                      + hgraph.vertex_weights[neigh[heavy]])
            fits = (merged <= max_vertex_weight).all(axis=1)
            score[heavy[~fits]] = -np.inf
        # First choices: the first pair holding its seed's top score.
        # ``fmax`` skips NaN, which the walk's ``>`` never takes either.
        counts = np.bincount(cand_seed, minlength=len(chunk))
        bounds = np.concatenate(([0], np.cumsum(counts)))
        has = np.nonzero(counts)[0]
        top = np.fmax.reduceat(score, bounds[has])
        valid = top > -np.inf
        tops = np.nonzero(score == np.repeat(top, counts[has]))[0]
        at = tops[np.searchsorted(tops, bounds[has[valid]])]
        choice = np.full(len(chunk), -1, dtype=np.int64)
        choice[has[valid]] = neigh[at]
        yield chunk, bounds, neigh, score, choice


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
    mate = [-1] * n  # list mirror of ``matched`` for the accept walk
    sizes = hgraph.edge_sizes()
    eligible = (sizes >= 2) & (sizes <= edge_size_limit)
    bonus = np.zeros(hgraph.n_edges)
    bonus[eligible] = (
        hgraph.edge_weights[eligible] / (sizes[eligible] - 1)
    )
    light = (hgraph.vertex_weights <= 0.5 * max_vertex_weight).all(axis=1)
    order = rng.permutation(n)

    for start in range(0, n, _MATCH_BATCH):
        batch = order[start:start + _MATCH_BATCH]
        if start:
            batch = batch[matched[batch] < 0]
        if len(batch) == 0:
            continue
        # Accept walk: per seed (in batch = permutation order), the best
        # score among still-unmatched neighbors; ``mate`` carries the
        # matches of earlier chunks.  A free first choice is that best.
        # Otherwise the seed's pairs are scanned: they are contiguous
        # and neighbor-sorted, so the strict ``>`` keeps the lowest
        # neighbor id among equal scores.
        accepted: List[int] = []
        for chunk, bounds, cand_neigh, cand_score, choice in \
                _batch_candidates(hgraph, batch, bonus, eligible,
                                  matched if start else None,
                                  max_vertex_weight, light):
            bounds = bounds.tolist()
            for i, (v, best) in enumerate(zip(chunk.tolist(),
                                              choice.tolist())):
                if best < 0 or mate[v] >= 0:
                    continue
                if mate[best] >= 0:
                    best, best_score = -1, -np.inf
                    lo, hi = bounds[i], bounds[i + 1]
                    for u, s in zip(cand_neigh[lo:hi].tolist(),
                                    cand_score[lo:hi].tolist()):
                        if s > best_score and mate[u] < 0:
                            best, best_score = u, s
                    if best < 0:
                        continue
                mate[v], mate[best] = best, v
                accepted += (v, best)
        # Only now: every chunk's filter must read the batch-start state.
        matched[accepted] = [mate[u] for u in accepted]

    # Coarse ids in permutation-visit order of each pair's first-seen
    # member (mirrors the historical next_id counter): marking every
    # group's first position and counting marks up to it gives the rank
    # of each group position, i.e. np.unique's inverse.
    perm_pos = np.empty(n, dtype=np.int64)
    perm_pos[order] = np.arange(n)
    partner = np.where(matched >= 0, matched, np.arange(n))
    group_pos = np.minimum(perm_pos, perm_pos[partner])
    first = np.zeros(n, dtype=bool)
    first[group_pos] = True
    return (np.cumsum(first, dtype=np.int64) - 1)[group_pos]


def contract(hgraph: Hypergraph, mapping: np.ndarray) -> Hypergraph:
    """Build the coarse hypergraph induced by a vertex mapping.

    Coarse vertex weights are sums of their members'.  Edges are
    re-pinned, deduplicated (identical pin sets merge, weights summed),
    and single-pin edges dropped (they can never be cut).
    """
    n_coarse = int(mapping.max()) + 1 if len(mapping) else 0
    weights = np.zeros((n_coarse, hgraph.n_constraints))
    np.add.at(weights, mapping, hgraph.vertex_weights)

    # Re-pin, then sort pins within each edge and drop in-edge
    # duplicates: one sort of (edge, pin) keys.
    radix = max(n_coarse, 1)
    key = np.sort(hgraph.pin_edge_ids() * radix + mapping[hgraph.pins])
    pe, cp = np.divmod(key[np.diff(key, prepend=-1) != 0], radix)
    # Drop edges contracted below two pins.
    sizes = np.bincount(pe, minlength=hgraph.n_edges)
    keep_edge = sizes >= 2
    cp = cp[keep_edge[pe]]
    sizes = sizes[keep_edge]

    # Cross-edge dedup: identical pin sets share a size.  Each edge is
    # a big-endian row (size, pins..., zero padding) whose pin width is
    # the power of two at or above its size, so a row holds at most
    # about twice the pins it encodes.  Rows of one width class, viewed
    # as np.void, sort bytewise in (size, pins) order, and the classes
    # grow with size: visiting them in turn yields the row order of a
    # per-size np.unique(axis=0).
    ptr = np.concatenate(([0], np.cumsum(sizes)))
    width_exp = np.frexp(sizes - 1)[1]  # pin width 2**width_exp >= size
    row_len = 1 + (np.int64(1) << width_exp)
    by_class = np.argsort(width_exp, kind="stable")
    row_end = np.cumsum(row_len[by_class])
    row_start = np.empty_like(sizes)
    row_start[by_class] = row_end - row_len[by_class]
    table = np.zeros(row_end[-1] if len(sizes) else 0, dtype=">i8")
    table[row_start] = sizes
    table[np.repeat(row_start + 1 - ptr[:-1], sizes)
          + np.arange(len(cp))] = cp
    inverse = np.empty(len(sizes), dtype=np.int64)
    reps = [np.empty(0, dtype=np.int64)]
    n_unique = lo = start = 0
    for exp, count in enumerate(np.bincount(width_exp).tolist()):
        if count == 0:
            continue
        length = 1 + (1 << exp)
        edges = by_class[lo:lo + count]
        rows = table[start:start + count * length].view(f"V{8 * length}")
        _, first, inv = np.unique(rows, return_index=True,
                                  return_inverse=True)
        inverse[edges] = inv + n_unique
        reps.append(edges[first])
        n_unique += len(first)
        lo, start = lo + count, start + count * length

    # One representative edge per pin set, in (size, pins) order; merged
    # weights summed in original edge order.
    rep = np.concatenate(reps)
    return Hypergraph.from_flat(
        n_coarse, ragged_take(cp, ptr[rep], sizes[rep]),
        np.concatenate(([0], np.cumsum(sizes[rep]))),
        np.bincount(inverse, weights=hgraph.edge_weights[keep_edge],
                    minlength=n_unique),
        weights,
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
