"""Graph preprocessing: coloring, permutation, and dependence analysis.

This subpackage implements the parallelism-improving preprocessing of
Sec. II-A: treating the matrix as a graph, coloring it, and permuting
rows and columns so that same-color (independent) rows are adjacent,
which shortens SpTRSV dependence chains.  It also provides the
work/critical-path analysis behind Table I; dependence levels come from
:func:`repro.sparse.schedule.triangular_schedule`.
"""

from repro.graph.coloring import (
    greedy_coloring,
    color_counts,
    color_permutation,
)
from repro.graph.permute import (
    symmetric_permute,
    permute_vector,
    inverse_permutation,
    color_and_permute,
)
from repro.graph.rcm import rcm_ordering
from repro.graph.parallelism import (
    spmv_parallelism,
    sptrsv_parallelism,
    parallelism_report,
    ParallelismReport,
)

__all__ = [
    "greedy_coloring",
    "color_counts",
    "color_permutation",
    "symmetric_permute",
    "permute_vector",
    "inverse_permutation",
    "color_and_permute",
    "spmv_parallelism",
    "sptrsv_parallelism",
    "parallelism_report",
    "ParallelismReport",
    "rcm_ordering",
]
