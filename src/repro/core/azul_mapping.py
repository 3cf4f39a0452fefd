"""Azul's hypergraph-partitioning data mapping (Sec. IV).

Every data value — each nonzero of A, each nonzero of L, and each
vector index's home — is a hypergraph vertex.  Each *communication set*
is a hyperedge:

* column ``j`` of a matrix together with vector slot ``j`` (the
  multicast set of ``v_j`` / solved ``x_j``);
* row ``i`` of a matrix together with vector slot ``i`` (the reduction
  set of ``y_i`` / the partial sums feeding ``x_i``).

Row hyperedges get a larger weight than column hyperedges because
splitting a reduction costs a standalone Add and can delay
parallelism-revealing variable eliminations (Sec. IV-C).  Balance
constraints combine SRAM bytes with the temporal depth quantiles of
:mod:`repro.core.quantiles`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

import repro.obs as obs
from repro.core.placement import (
    PCG_VECTORS_PER_INDEX,
    Placement,
    pin_diagonals,
)
from repro.core.quantiles import depth_quantile_weights, pcg_vertex_depths
from repro.core.registry import AZUL_DEFAULTS
from repro.hypergraph import Hypergraph, PartitionerOptions, partition
from repro.sparse.csr import CSRMatrix


def _set_edges(groups: np.ndarray, nnz_ids: np.ndarray, n: int,
               vec_offset: int):
    """Flat pins and sizes of the edges {nonzeros in group g} + slot g.

    One edge per non-empty group ``g``, in ascending ``g``.  A stable
    sort keeps each edge's nonzero ids ascending, and its vector slot
    (above every nonzero id) comes last, so every edge is sorted and
    unique as :meth:`Hypergraph.from_flat` requires.
    """
    counts = np.bincount(groups, minlength=n)
    present = np.flatnonzero(counts)
    pins = np.concatenate([nnz_ids, vec_offset + present])
    order = np.argsort(np.concatenate([groups, present]), kind="stable")
    return pins[order], counts[present] + 1


def _matrix_edges(matrix: CSRMatrix, nnz_offset: int, vec_offset: int,
                  row_weight: float):
    """Row then column hyperedges of one matrix: (pins, sizes, weights).

    Row edges are reduction sets {nonzeros of row i} + vec slot i;
    column edges are multicast sets {nonzeros of column j} + vec slot j.
    """
    n = matrix.n_rows
    rows = np.repeat(np.arange(n), matrix.row_nnz())
    nnz_ids = np.arange(matrix.nnz) + nnz_offset
    row_pins, row_sizes = _set_edges(rows, nnz_ids, n, vec_offset)
    col_pins, col_sizes = _set_edges(matrix.indices, nnz_ids, n, vec_offset)
    weights = np.concatenate([np.full(len(row_sizes), float(row_weight)),
                              np.ones(len(col_sizes))])
    return (np.concatenate([row_pins, col_pins]),
            np.concatenate([row_sizes, col_sizes]), weights)


def build_pcg_hypergraph(matrix: CSRMatrix, lower: CSRMatrix,
                         q: int = AZUL_DEFAULTS["q"],
                         row_weight: float = AZUL_DEFAULTS["row_weight"],
                         nnz_bytes: int = 12,
                         vector_bytes: int = 8) -> Hypergraph:
    """Hypergraph of one PCG iteration's communication sets.

    Vertices: A nonzeros ``[0, nnzA)``, L nonzeros ``[nnzA, nnzA+nnzL)``,
    vector slots ``[nnzA+nnzL, +n)``.  Vertex weight columns: SRAM bytes
    first, then ``q`` temporal quantile indicators (``q = 0`` disables
    time balancing — the "nonzero balancing" baseline of Fig. 17).
    """
    n = matrix.n_rows
    n_vertices = matrix.nnz + lower.nnz + n
    vec_offset = matrix.nnz + lower.nnz

    a_pins, a_sizes, a_weights = _matrix_edges(
        matrix, 0, vec_offset, row_weight
    )
    l_pins, l_sizes, l_weights = _matrix_edges(
        lower, matrix.nnz, vec_offset, row_weight
    )
    edge_ptr = np.concatenate(([0], np.cumsum(np.concatenate(
        [a_sizes, l_sizes]))))

    bytes_col = np.concatenate([
        np.full(matrix.nnz, nnz_bytes, dtype=np.float64),
        np.full(lower.nnz, nnz_bytes, dtype=np.float64),
        np.full(n, vector_bytes * PCG_VECTORS_PER_INDEX, dtype=np.float64),
    ])
    if q > 0:
        depths = pcg_vertex_depths(matrix, lower)
        quantiles = depth_quantile_weights(depths, q)
        vertex_weights = np.column_stack([bytes_col, quantiles])
    else:
        vertex_weights = bytes_col[:, None]

    return Hypergraph.from_flat(
        n_vertices, np.concatenate([a_pins, l_pins]), edge_ptr,
        np.concatenate([a_weights, l_weights]), vertex_weights,
    )


def map_azul(matrix: CSRMatrix, lower: CSRMatrix, n_tiles: int,
             q: int = AZUL_DEFAULTS["q"],
             row_weight: float = AZUL_DEFAULTS["row_weight"],
             options: Optional[PartitionerOptions] = None) -> Placement:
    """Azul's data mapping: partition the PCG hypergraph over the tiles.

    Parameters
    ----------
    q:
        Number of temporal balance quantiles (5 in the paper; 0 gives
        the nonzero-balancing-only ablation of Fig. 17).
    row_weight:
        Reduction-edge weight relative to multicast edges (Sec. IV-C).
    options:
        Partitioner preset; defaults to
        :meth:`PartitionerOptions.quality` scaled-down default.
    """
    with obs.timer("place.build_hypergraph"):
        hgraph = build_pcg_hypergraph(matrix, lower, q=q,
                                      row_weight=row_weight)
    options = options or PartitionerOptions(seed=0)
    with obs.timer("place.partition", n_tiles=n_tiles,
                   n_vertices=hgraph.n_vertices):
        assignment = partition(hgraph, n_tiles, options)

    vec_offset = matrix.nnz + lower.nnz
    placement = Placement(
        n_tiles=n_tiles,
        a_tile=assignment[:matrix.nnz],
        l_tile=assignment[matrix.nnz:vec_offset],
        vec_tile=assignment[vec_offset:],
        mapper="azul" if q > 0 else "azul_nnz_balanced",
    )
    return pin_diagonals(placement, lower)
