"""Sparse-matrix substrate: formats, kernels, generators, and the suite.

This subpackage provides the sparse linear-algebra foundation the paper's
solvers run on: COO/CSR/CSC storage, the SpMV kernel and the
level-scheduled SpTRSV and IC(0) kernels over cached triangular
schedules, Matrix Market I/O, synthetic matrix generators, and the benchmark suite that
stands in for the paper's SuiteSparse selection (Table IV).

Public names are imported on first use.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.sparse.coo": ("COOMatrix",),
    "repro.sparse.csr": ("CSRMatrix", "transpose_with_mapping"),
    "repro.sparse.csc": ("CSCMatrix",),
    "repro.sparse.convert": (
        "coo_to_csr", "coo_to_csc", "csr_to_coo", "csr_to_csc",
        "csc_to_csr", "from_scipy", "to_scipy",
    ),
    "repro.sparse.ops": (
        "ic0_attempt", "level_sptrsv_lower", "level_sptrsv_transposed",
        "level_sptrsv_upper", "spmv", "spmv_flops", "sptrsv_flops",
    ),
    "repro.sparse.schedule": (
        "IC0Schedule", "TriangularSchedule", "ic0_schedule",
        "triangular_schedule",
    ),
    "repro.sparse.properties": (
        "is_symmetric", "is_lower_triangular", "is_upper_triangular",
        "is_diagonally_dominant", "has_full_diagonal", "bandwidth",
        "nnz_per_row_stats", "matrix_footprint_bytes",
        "vector_footprint_bytes",
    ),
    "repro.sparse.io_mm": ("read_matrix_market", "write_matrix_market"),
    "repro.sparse": ("generators",),
    "repro.sparse.suite": ("SuiteMatrix", "azul_suite", "get_suite_matrix"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
