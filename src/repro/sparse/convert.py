"""Conversions between sparse formats (and to/from SciPy for interop).

All conversions sum duplicate COO entries and produce sorted indices in
the compressed formats, so downstream kernels can rely on ordered rows
and columns.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.csc import CSCMatrix


def coo_to_csr(coo: COOMatrix) -> CSRMatrix:
    """Convert a COO matrix to CSR (duplicates summed, columns sorted)."""
    coo = coo.sum_duplicates()
    n_rows = coo.shape[0]
    order = np.lexsort((coo.cols, coo.rows))
    rows = coo.rows[order]
    counts = np.bincount(rows, minlength=n_rows)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return CSRMatrix(indptr, coo.cols[order], coo.data[order], coo.shape)


def coo_to_csc(coo: COOMatrix) -> CSCMatrix:
    """Convert a COO matrix to CSC (duplicates summed, rows sorted)."""
    coo = coo.sum_duplicates()
    n_cols = coo.shape[1]
    order = np.lexsort((coo.rows, coo.cols))
    cols = coo.cols[order]
    counts = np.bincount(cols, minlength=n_cols)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return CSCMatrix(indptr, coo.rows[order], coo.data[order], coo.shape)


def csr_to_coo(csr: CSRMatrix) -> COOMatrix:
    """Expand a CSR matrix into coordinate form."""
    rows = np.repeat(np.arange(csr.n_rows), csr.row_nnz())
    return COOMatrix(rows, csr.indices.copy(), csr.data.copy(), csr.shape)


def csc_to_coo(csc: CSCMatrix) -> COOMatrix:
    """Expand a CSC matrix into coordinate form."""
    cols = np.repeat(np.arange(csc.n_cols), csc.col_nnz())
    return COOMatrix(csc.indices.copy(), cols, csc.data.copy(), csc.shape)


def csr_to_csc(csr: CSRMatrix) -> CSCMatrix:
    """Convert CSR to CSC."""
    return coo_to_csc(csr_to_coo(csr))


def csc_to_csr(csc: CSCMatrix) -> CSRMatrix:
    """Convert CSC to CSR."""
    return coo_to_csr(csc_to_coo(csc))


def from_scipy(mat) -> CSRMatrix:
    """Build a :class:`CSRMatrix` from any SciPy sparse matrix.

    Needs scipy installed (it is not a runtime dependency of ``repro``).
    """
    sp = mat.tocoo()
    coo = COOMatrix(sp.row, sp.col, sp.data, sp.shape)
    return coo_to_csr(coo)


def to_scipy(csr: CSRMatrix):
    """Convert a :class:`CSRMatrix` to a ``scipy.sparse.csr_matrix``.

    Needs scipy installed (it is not a runtime dependency of ``repro``).
    """
    import scipy.sparse as sps

    return sps.csr_matrix(
        (csr.data.copy(), csr.indices.copy(), csr.indptr.copy()),
        shape=csr.shape,
    )
