"""Sparse-matrix substrate: formats, kernels, generators, and the suite.

This subpackage provides the sparse linear-algebra foundation the paper's
solvers run on: COO/CSR/CSC storage, the SpMV/SpTRSV/IC(0) kernels
(per-row and level-scheduled), cached triangular schedules, Matrix
Market I/O, synthetic matrix generators, and the benchmark suite that
stands in for the paper's SuiteSparse selection (Table IV).
"""

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.convert import (
    coo_to_csr,
    coo_to_csc,
    csr_to_coo,
    csr_to_csc,
    csc_to_csr,
    from_scipy,
    to_scipy,
)
from repro.sparse.ops import (
    ic0_attempt,
    level_sptrsv_lower,
    level_sptrsv_upper,
    spmv,
    sptrsv_lower,
    sptrsv_upper,
    spmv_flops,
    sptrsv_flops,
)
from repro.sparse.schedule import (
    IC0Schedule,
    TriangularSchedule,
    ic0_schedule,
    triangular_schedule,
)
from repro.sparse.properties import (
    is_symmetric,
    is_lower_triangular,
    is_upper_triangular,
    is_diagonally_dominant,
    has_full_diagonal,
    bandwidth,
    nnz_per_row_stats,
    matrix_footprint_bytes,
    vector_footprint_bytes,
)
from repro.sparse.io_mm import read_matrix_market, write_matrix_market
from repro.sparse import generators
from repro.sparse.suite import SuiteMatrix, azul_suite, get_suite_matrix

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "coo_to_csr",
    "coo_to_csc",
    "csr_to_coo",
    "csr_to_csc",
    "csc_to_csr",
    "from_scipy",
    "to_scipy",
    "ic0_attempt",
    "level_sptrsv_lower",
    "level_sptrsv_upper",
    "IC0Schedule",
    "TriangularSchedule",
    "ic0_schedule",
    "triangular_schedule",
    "spmv",
    "sptrsv_lower",
    "sptrsv_upper",
    "spmv_flops",
    "sptrsv_flops",
    "is_symmetric",
    "is_lower_triangular",
    "is_upper_triangular",
    "is_diagonally_dominant",
    "has_full_diagonal",
    "bandwidth",
    "nnz_per_row_stats",
    "matrix_footprint_bytes",
    "vector_footprint_bytes",
    "read_matrix_market",
    "write_matrix_market",
    "generators",
    "SuiteMatrix",
    "azul_suite",
    "get_suite_matrix",
]
