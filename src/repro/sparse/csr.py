"""Compressed Sparse Row (CSR) matrix format.

CSR is the workhorse format for the row-oriented kernels (SpMV and
row-substitution SpTRSV) and for the dataflow program builders, which
need fast access to the nonzeros of a row.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MatrixFormatError


class CSRMatrix:
    """A sparse matrix in compressed sparse row format.

    Parameters
    ----------
    indptr:
        Row-pointer array of length ``n_rows + 1``.
    indices:
        Column indices, length ``nnz``; must be sorted within each row
        (enforce via :meth:`sort_indices` if constructing manually).
    data:
        Nonzero values aligned with ``indices``.
    shape:
        ``(n_rows, n_cols)``.
    """

    def __init__(self, indptr, indices, data, shape):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        self.shape = (int(shape[0]), int(shape[1]))
        self._validate()

    def _validate(self):
        n_rows, n_cols = self.shape
        if len(self.indptr) != n_rows + 1:
            raise MatrixFormatError(
                f"indptr length {len(self.indptr)} != n_rows + 1 ({n_rows + 1})"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise MatrixFormatError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise MatrixFormatError("indptr must be non-decreasing")
        if len(self.indices) != len(self.data):
            raise MatrixFormatError("indices and data must have equal length")
        if len(self.indices) > 0:
            if self.indices.min() < 0 or self.indices.max() >= n_cols:
                raise MatrixFormatError("column index out of bounds")

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored nonzeros."""
        return len(self.data)

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    def __repr__(self):
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def row_slice(self, i: int) -> slice:
        """The slice of ``indices``/``data`` belonging to row ``i``."""
        return slice(int(self.indptr[i]), int(self.indptr[i + 1]))

    def row(self, i: int):
        """Return ``(column_indices, values)`` of row ``i`` as views."""
        sl = self.row_slice(i)
        return self.indices[sl], self.data[sl]

    def row_nnz(self) -> np.ndarray:
        """Number of nonzeros in each row."""
        return np.diff(self.indptr)

    def diagonal(self) -> np.ndarray:
        """Return the main diagonal as a dense vector (zeros where absent)."""
        diag = np.zeros(min(self.shape), dtype=np.float64)
        for i in range(min(self.shape)):
            cols, vals = self.row(i)
            hit = np.searchsorted(cols, i)
            if hit < len(cols) and cols[hit] == i:
                diag[i] = vals[hit]
        return diag

    # ------------------------------------------------------------------
    # Structural transforms
    # ------------------------------------------------------------------
    def sort_indices(self) -> "CSRMatrix":
        """Return a copy with column indices sorted within each row."""
        indices = self.indices.copy()
        data = self.data.copy()
        for i in range(self.n_rows):
            sl = self.row_slice(i)
            order = np.argsort(indices[sl], kind="stable")
            indices[sl] = indices[sl][order]
            data[sl] = data[sl][order]
        return CSRMatrix(self.indptr.copy(), indices, data, self.shape)

    def transpose(self) -> "CSRMatrix":
        """Return the transpose, also in CSR form."""
        return transpose_with_mapping(self)[0]

    def lower_triangle(self, include_diagonal: bool = True) -> "CSRMatrix":
        """Extract the lower triangle as a new CSR matrix."""
        return self._triangle(lower=True, include_diagonal=include_diagonal)

    def upper_triangle(self, include_diagonal: bool = True) -> "CSRMatrix":
        """Extract the upper triangle as a new CSR matrix."""
        return self._triangle(lower=False, include_diagonal=include_diagonal)

    def _triangle(self, lower: bool, include_diagonal: bool) -> "CSRMatrix":
        rows = np.repeat(np.arange(self.n_rows), self.row_nnz())
        if lower:
            keep = self.indices <= rows if include_diagonal else self.indices < rows
        else:
            keep = self.indices >= rows if include_diagonal else self.indices > rows
        new_rows = rows[keep]
        counts = np.bincount(new_rows, minlength=self.n_rows)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        return CSRMatrix(indptr, self.indices[keep], self.data[keep], self.shape)

    def scale_rows(self, scale) -> "CSRMatrix":
        """Return a copy with row ``i`` multiplied by ``scale[i]``."""
        scale = np.asarray(scale, dtype=np.float64)
        if len(scale) != self.n_rows:
            raise MatrixFormatError("scale vector length must equal n_rows")
        rows = np.repeat(np.arange(self.n_rows), self.row_nnz())
        return CSRMatrix(
            self.indptr.copy(),
            self.indices.copy(),
            self.data * scale[rows],
            self.shape,
        )

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense ndarray."""
        dense = np.zeros(self.shape, dtype=np.float64)
        rows = np.repeat(np.arange(self.n_rows), self.row_nnz())
        dense[rows, self.indices] = self.data
        return dense

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def spmv(self, x) -> np.ndarray:
        """Compute ``y = A @ x`` (vectorized reference implementation)."""
        x = np.asarray(x, dtype=np.float64)
        if len(x) != self.n_cols:
            raise MatrixFormatError(
                f"vector length {len(x)} != n_cols {self.n_cols}"
            )
        products = self.data * x[self.indices]
        y = np.zeros(self.n_rows, dtype=np.float64)
        if self.nnz:
            rows = np.repeat(np.arange(self.n_rows), self.row_nnz())
            np.add.at(y, rows, products)
        return y

    def __matmul__(self, x):
        return self.spmv(x)

    def allclose(self, other: "CSRMatrix", rtol=1e-10, atol=1e-12) -> bool:
        """Structural and numerical equality within tolerances."""
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.allclose(self.data, other.data, rtol=rtol, atol=atol)
        )


def transpose_with_mapping(matrix: CSRMatrix):
    """Transpose a CSR matrix, tracking where each nonzero came from.

    Returns ``(transposed, source)`` where
    ``transposed.data[k] == matrix.data[source[k]]``: the dataflow
    compiler carries per-nonzero tile assignments through it, and the
    backward solve's cached schedule reads the factor's current values
    through it.  Columns come out sorted within each row.
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
