"""Weighted critical path of sparse triangular solves.

The dependence graph of SpTRSV (Fig. 5) assigns each row a *level*: the
length of the longest dependence chain ending at that row.  Rows in the
same level are independent and can be solved in parallel; the number of
levels bounds the solve's critical path.  The levels themselves come
from the cached :func:`repro.sparse.schedule.triangular_schedule`; this
module weighs the chain by each row's operation count.  Like the
schedule, the weighted chain reads only the factor's structure and is
cached on it.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.schedule import cached_on


def critical_path_ops(lower: CSRMatrix) -> int:
    """Length of the weighted critical path through the SpTRSV dataflow.

    Each row costs as many operations as it has nonzeros (its FMACs plus
    the final scale by the reciprocal diagonal are serialized within the
    row); the critical path is the longest such weighted chain.  This is
    the denominator of the paper's Table I parallelism estimate.
    Computed once per factor structure.
    """
    return cached_on(lower, ("critical_path",),
                     lambda: _critical_path(lower))


def _critical_path(lower: CSRMatrix) -> int:
    n = lower.n_rows
    path = np.zeros(n, dtype=np.int64)
    indptr, indices = lower.indptr, lower.indices
    for i in range(n):
        row_cost = indptr[i + 1] - indptr[i]
        longest_parent = 0
        for k in range(indptr[i], indptr[i + 1]):
            j = indices[k]
            if j < i and path[j] > longest_parent:
                longest_parent = path[j]
        path[i] = longest_parent + row_cost
    return int(path.max()) if n else 0
