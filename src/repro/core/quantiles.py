"""Temporal quantile weights for time-balanced partitioning (Sec. IV-C).

Hypergraph partitioning with only data-balance constraints can
concentrate early- or late-dataflow work on few tiles, serializing
SpTRSV (Fig. 17).  The fix: bucket every vertex by the *depth* of its
associated arithmetic operation in the dataflow's topological order,
then balance each depth quantile across partitions using the
partitioner's multi-constraint support.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.schedule import triangular_schedule


def pcg_vertex_depths(matrix: CSRMatrix, lower: CSRMatrix) -> np.ndarray:
    """Dataflow depth of each hypergraph vertex in one PCG iteration.

    Vertex order matches :func:`~repro.core.azul_mapping
    .build_pcg_hypergraph`: A nonzeros, then L nonzeros, then vector
    slots.  SpMV operations are shallow (depth 0); each L nonzero's FMAC
    fires when its row is being solved, so its depth is the row's level;
    a vector slot's defining operation is solving ``x_i``, also at the
    row's level.  The levels are those of ``lower``'s cached triangular
    schedule, the one its solves and verification execute.
    """
    levels = triangular_schedule(lower).levels
    a_depths = np.zeros(matrix.nnz, dtype=np.int64)
    l_rows = np.repeat(np.arange(lower.n_rows), lower.row_nnz())
    l_depths = levels[l_rows] + 1
    vec_depths = levels + 1
    return np.concatenate([a_depths, l_depths, vec_depths])


def depth_quantile_weights(depths: np.ndarray, q: int = 5) -> np.ndarray:
    """One-hot quantile membership weights, shape ``(n_vertices, q)``.

    Vertices are ranked by depth (stable, so equal depths stay grouped)
    and split into ``q`` equal-count buckets; column ``c`` is 1 for
    members of quantile ``c``.  Balancing each column across partitions
    balances work *over time* (the paper uses ``q = 5``).
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    n = len(depths)
    weights = np.zeros((n, q))
    if n == 0:
        return weights
    order = np.argsort(depths, kind="stable")
    bucket_of_rank = np.minimum(np.arange(n) * q // n, q - 1)
    weights[order, bucket_of_rank] = 1.0
    return weights
