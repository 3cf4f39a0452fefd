"""SpTRSV dataflow program construction (Sec. IV-A).

The forward solve ``L x = b`` runs column-driven: when ``x_j`` is
solved at its home, it is multicast down L's column ``j``; receiving
tiles FMAC it against their local column segments, and completed row
partials reduce into the solve site of the next rows.  The backward
solve with ``L^T`` is the same program built on the transposed
structure (columns of ``L^T`` are rows of ``L``), reusing L's nonzero
placement.
"""

from __future__ import annotations

import numpy as np

from repro.comm.torus import TorusGeometry
from repro.dataflow.ir import CompiledKernel
from repro.dataflow.kernel_program import build_kernel_program
from repro.errors import MatrixFormatError, SingularMatrixError
from repro.sparse.csr import CSRMatrix


def transpose_with_mapping(matrix: CSRMatrix):
    """Transpose a CSR matrix, tracking where each nonzero came from.

    Returns ``(transposed, source_index)`` where
    ``transposed.data[k] == matrix.data[source_index[k]]``; used to
    carry per-nonzero tile assignments through the transpose.
    """
    rows = np.repeat(np.arange(matrix.n_rows), matrix.row_nnz())
    cols = matrix.indices
    order = np.lexsort((rows, cols))
    counts = np.bincount(cols, minlength=matrix.n_cols)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    transposed = CSRMatrix(
        indptr, rows[order], matrix.data[order],
        (matrix.n_cols, matrix.n_rows),
    )
    return transposed, order


def _split_diagonal(tri: CSRMatrix, nnz_tile: np.ndarray, lower: bool):
    """Separate a triangular matrix into off-diagonal triplets + 1/diag."""
    n = tri.n_rows
    rows = np.repeat(np.arange(n), tri.row_nnz())
    cols = tri.indices
    on_diag = rows == cols
    bad = cols > rows if lower else cols < rows
    if bad.any():
        raise MatrixFormatError(
            "matrix is not triangular in the expected orientation"
        )
    diag = np.zeros(n)
    diag[rows[on_diag]] = tri.data[on_diag]
    if np.any(diag == 0.0):
        raise SingularMatrixError("triangular solve requires full diagonal")
    off = ~on_diag
    return rows[off], cols[off], tri.data[off], nnz_tile[off], 1.0 / diag


def build_sptrsv_program(lower: CSRMatrix, l_tile: np.ndarray,
                         vec_tile: np.ndarray, torus: TorusGeometry,
                         transpose: bool = False,
                         multicast: str = "tree") -> CompiledKernel:
    """Compile a triangular solve under a placement.

    Parameters
    ----------
    lower:
        The lower-triangular factor ``L`` in CSR form.
    l_tile:
        Tile of each L nonzero (CSR order), diagonals pinned to homes.
    transpose:
        When true, build the backward solve ``L^T x = b``; L's nonzero
        placement is reused through the transpose.
    """
    l_tile = np.asarray(l_tile, dtype=np.int64)
    if transpose:
        upper, source = transpose_with_mapping(lower)
        rows, cols, values, tiles, inv_diag = _split_diagonal(
            upper, l_tile[source], lower=False
        )
        name = "sptrsv_upper"
    else:
        rows, cols, values, tiles, inv_diag = _split_diagonal(
            lower, l_tile, lower=True
        )
        name = "sptrsv_lower"
    return build_kernel_program(
        name=name,
        n=lower.n_rows,
        rows=rows,
        cols=cols,
        values=values,
        nnz_tile=tiles,
        vec_tile=vec_tile,
        torus=torus,
        inv_diag=inv_diag,
        dependent=True,
        multicast=multicast,
    )
