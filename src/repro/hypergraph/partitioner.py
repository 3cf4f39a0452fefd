"""Multilevel recursive-bisection hypergraph partitioner.

The top-level :func:`partition` splits a hypergraph into ``n_parts``
balanced parts minimizing connectivity cut, via recursive bisection;
each bisection runs the full multilevel pipeline (coarsen, initial
partition, uncoarsen with FM refinement at every level).

Quality presets mirror PaToH's speed/default/quality knobs that the
paper mentions in Sec. VI-D.

Per-branch randomness
---------------------
Every branch of the recursion tree draws its randomness from its *own*
generator, seeded by ``np.random.SeedSequence(options.seed,
spawn_key=path)`` where ``path`` is the tuple of 0/1 branch directions
from the root, so the result depends only on ``(hypergraph, n_parts,
options)`` and not on the order the branches run in.  Every placement
depends on these draws.  The partitioner runs in one process; sweeps
spread whole placements over worker processes (:mod:`repro.parallel`).

Layer contract: ``partitioner`` is the top of the hypergraph stack
(above ``coarsen``/``initial``/``refine``) and never
imports ``repro.sim``/``repro.core``/``repro.experiments`` — callers
pass options down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

import repro.obs as obs
from repro.errors import PartitionError
from repro.hypergraph.coarsen import (
    DEFAULT_MATCHING_EDGE_SIZE_LIMIT,
    coarsen,
)
from repro.hypergraph.hgraph import Hypergraph
from repro.hypergraph.initial import (
    DEFAULT_GROWTH_EDGE_SIZE_LIMIT,
    greedy_bisect,
)
from repro.hypergraph.refine import fm_refine


@dataclass(frozen=True)
class PartitionerOptions:
    """Tuning knobs of the multilevel partitioner.

    ``epsilon`` is the allowed per-constraint imbalance (10% default,
    a common PaToH setting).  The quality presets trade cut quality for
    mapping time, mirroring the PaToH presets discussed in Sec. VI-D.

    ``matching_edge_size_limit`` and ``growth_edge_size_limit`` cap
    the hyperedge sizes scanned during coarsening / region growing;
    larger edges carry negligible per-pin connectivity and scanning
    them dominates runtime.
    """

    epsilon: float = 0.10
    seed: int = 0
    coarsen_until: int = 96
    max_coarsen_levels: int = 24
    fm_passes: int = 2
    initial_tries: int = 4
    stall_limit: int = 64
    matching_edge_size_limit: int = DEFAULT_MATCHING_EDGE_SIZE_LIMIT
    growth_edge_size_limit: int = DEFAULT_GROWTH_EDGE_SIZE_LIMIT

    @classmethod
    def speed(cls, seed: int = 0) -> "PartitionerOptions":
        """Fastest preset: fewer tries, one FM pass, tight edge caps."""
        return cls(
            seed=seed, fm_passes=1, initial_tries=2, stall_limit=32,
            matching_edge_size_limit=48, growth_edge_size_limit=128,
        )

    @classmethod
    def quality(cls, seed: int = 0) -> "PartitionerOptions":
        """Highest-quality preset (the paper's choice, Sec. VI-D)."""
        return cls(
            seed=seed, fm_passes=4, initial_tries=8, stall_limit=128,
            matching_edge_size_limit=96, growth_edge_size_limit=512,
        )


def _branch_rng(options: PartitionerOptions,
                path: Tuple[int, ...]) -> np.random.Generator:
    """Generator for one branch of the recursion tree.

    Seeded from ``(options.seed, path)`` so every branch's randomness
    is independent of execution order.
    """
    return np.random.default_rng(
        np.random.SeedSequence(options.seed, spawn_key=path)
    )


def partition(hgraph: Hypergraph, n_parts: int,
              options: Optional[PartitionerOptions] = None) -> np.ndarray:
    """Partition a hypergraph into ``n_parts`` parts.

    Returns an assignment array of length ``hgraph.n_vertices`` with
    values in ``[0, n_parts)``.  Balance is enforced per constraint to
    within ``1 + epsilon`` of ideal (plus single-vertex slack).
    """
    if n_parts < 1:
        raise PartitionError("n_parts must be positive")
    options = options or PartitionerOptions()
    assignment = np.zeros(hgraph.n_vertices, dtype=np.int64)
    if n_parts == 1 or hgraph.n_vertices == 0:
        return assignment
    vertex_ids = np.arange(hgraph.n_vertices)
    _recurse(hgraph, vertex_ids, n_parts, 0, assignment, options, ())
    return assignment


def _recurse(hgraph: Hypergraph, vertex_ids: np.ndarray, n_parts: int,
             part_offset: int, assignment: np.ndarray,
             options: PartitionerOptions, path: Tuple[int, ...]) -> None:
    """Recursively bisect ``hgraph`` (``n_parts >= 2``) and write final
    part ids."""
    if hgraph.n_vertices <= n_parts:
        # No more vertices than parts: scatter them round-robin.
        assignment[vertex_ids] = (part_offset
                                  + np.arange(len(vertex_ids)) % n_parts)
        return
    k0 = n_parts // 2
    fraction = k0 / n_parts
    side = multilevel_bisect(hgraph, fraction, options, _branch_rng(options, path))

    left_mask = side == 0
    children = ((left_mask, k0, part_offset),
                (~left_mask, n_parts - k0, part_offset + k0))
    for branch, (mask, parts, offset) in enumerate(children):
        if parts == 1:
            # A single-part child only takes its part id; it needs no
            # sub-hypergraph.
            assignment[vertex_ids[mask]] = offset
            continue
        _recurse(_induced(hgraph, mask), vertex_ids[mask], parts, offset,
                 assignment, options, path + (branch,))


def _induced(hgraph: Hypergraph, mask: np.ndarray) -> Hypergraph:
    """Sub-hypergraph induced by the masked vertices.

    Edges are restricted to surviving pins; edges left with fewer than
    two pins are dropped (they cannot be cut again).

    Works entirely on the flat pin/offset arrays: one vectorized pass
    renumbers pins, a prefix sum counts survivors per edge, and the
    kept pins are gathered in order — no per-edge Python loop.  Each
    edge's pins stay sorted and unique (the old -> new id map is
    strictly increasing on kept vertices), so the sub-hypergraph is
    built with :meth:`Hypergraph.from_flat`.
    """
    new_ids = np.full(hgraph.n_vertices, -1, dtype=np.int64)
    kept = np.nonzero(mask)[0]
    new_ids[kept] = np.arange(len(kept))

    local_pins = new_ids[hgraph.pins]
    keep_pin = local_pins >= 0
    # Surviving-pin count per edge via prefix sums (robust to empty
    # edges, unlike reduceat).
    csum = np.concatenate(([0], np.cumsum(keep_pin)))
    counts = csum[hgraph.edge_ptr[1:]] - csum[hgraph.edge_ptr[:-1]]
    keep_edge = counts >= 2

    pin_edge = hgraph.pin_edge_ids()
    select = keep_pin & keep_edge[pin_edge]
    sub_sizes = counts[keep_edge]
    return Hypergraph.from_flat(
        len(kept),
        local_pins[select],
        np.concatenate(([0], np.cumsum(sub_sizes))),
        hgraph.edge_weights[keep_edge],
        hgraph.vertex_weights[kept],
    )


def _caps(hgraph: Hypergraph, fraction: float, epsilon: float) -> np.ndarray:
    """Per-side weight ceilings for a (fraction, 1-fraction) bisection."""
    totals = hgraph.total_weights()
    slack = hgraph.vertex_weights.max(axis=0)
    caps = np.empty((2, hgraph.n_constraints))
    caps[0] = totals * fraction * (1.0 + epsilon) + slack
    caps[1] = totals * (1.0 - fraction) * (1.0 + epsilon) + slack
    return caps


def multilevel_bisect(hgraph: Hypergraph, fraction: float,
                      options: PartitionerOptions,
                      rng: np.random.Generator) -> np.ndarray:
    """One multilevel bisection: coarsen, initial partition, refine up.

    Each phase is wrapped in an :func:`repro.obs.timer` — the
    ``partition.coarsen`` / ``partition.initial`` / ``partition.refine``
    histograms and spans of the observability layer.  With
    observability disabled (the default) each wrapper is a single flag
    check; the phase bodies are untouched.
    """
    with obs.timer("partition.bisect", n_vertices=hgraph.n_vertices):
        with obs.timer("partition.coarsen"):
            levels, mappings = coarsen(
                hgraph, rng,
                stop_at=options.coarsen_until,
                max_levels=options.max_coarsen_levels,
                matching_edge_size_limit=options.matching_edge_size_limit,
            )
        coarsest = levels[-1]
        caps = _caps(coarsest, fraction, options.epsilon)
        with obs.timer("partition.initial"):
            side = greedy_bisect(
                coarsest, fraction, caps[0], rng,
                tries=options.initial_tries,
                edge_size_limit=options.growth_edge_size_limit,
            )
        with obs.timer("partition.refine"):
            side = fm_refine(
                coarsest, side, caps,
                passes=options.fm_passes, stall_limit=options.stall_limit,
            )
        # Project back through the levels, refining at each.
        for level_index in range(len(mappings) - 1, -1, -1):
            fine = levels[level_index]
            mapping = mappings[level_index]
            side = side[mapping]
            caps = _caps(fine, fraction, options.epsilon)
            with obs.timer("partition.refine"):
                side = fm_refine(
                    fine, side, caps,
                    passes=options.fm_passes,
                    stall_limit=options.stall_limit,
                )
    return side
