"""Program construction: the one place dataflow programs are built.

:func:`build_spmv_program` and :func:`build_sptrsv_program` turn one
mapped kernel into triplets and lower them
(:func:`repro.dataflow.lower.lower_kernel`).  SpMV multicasts each
``v_j`` from its home down column ``j``'s tiles and reduces row
partials into ``y_i``'s home; the forward solve runs column-driven the
same way, multicasting each solved ``x_j`` down L's column ``j``; the
backward solve with ``L^T`` is the same program built on the
transposed structure, reusing L's nonzero placement.

:func:`build_pcg_program` compiles one PCG iteration (Listing 1),
whose phases run with barriers between them:

1. SpMV:             ``Ap = A p``
2. vector phase (a): ``alpha``, ``x += alpha p``, ``r -= alpha Ap``
3. forward SpTRSV:   ``w = L^{-1} r``
4. backward SpTRSV:  ``z = L^{-T} w``
5. vector phase (b): ``rz``, ``beta``, ``p = z + beta p``

A program holds only the three sparse kernels: the machine costs the
dense vector phases from its own configuration
(:class:`~repro.dataflow.vector_ops.VectorPhaseModel`), so a cached
program serves every timing configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.torus import TorusGeometry
from repro.core.placement import Placement
from repro.dataflow.ir import CompiledKernel
from repro.dataflow.lower import lower_kernel
from repro.dataflow.vector_ops import VectorPhaseModel
from repro.errors import (
    MatrixFormatError,
    SimulationError,
    SingularMatrixError,
)
from repro.sparse.csr import CSRMatrix, transpose_with_mapping


def build_spmv_program(matrix: CSRMatrix, a_tile: np.ndarray,
                       vec_tile: np.ndarray,
                       torus: TorusGeometry,
                       multicast: str = "tree") -> CompiledKernel:
    """Compile ``y = A x`` under a placement into a kernel program.

    ``a_tile`` assigns each CSR-ordered nonzero of ``matrix`` to a tile;
    ``vec_tile`` gives vector homes (both ``x`` and ``y`` use the same
    homes, as PCG's vectors are co-placed).
    """
    rows = np.repeat(np.arange(matrix.n_rows), matrix.row_nnz())
    return lower_kernel(
        "spmv", matrix.n_rows, rows, matrix.indices, matrix.data,
        np.asarray(a_tile, dtype=np.int64), vec_tile, torus,
        multicast=multicast,
    )


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
    return lower_kernel(
        name, lower.n_rows, rows, cols, values, tiles, vec_tile, torus,
        inv_diag=inv_diag, dependent=True, multicast=multicast,
    )


@dataclass
class PCGIterationProgram:
    """All compiled kernels of one PCG iteration under one placement."""

    spmv: CompiledKernel
    sptrsv_lower: CompiledKernel
    sptrsv_upper: CompiledKernel

    @property
    def n(self) -> int:
        """Rows of the system."""
        return self.spmv.n

    @property
    def kernels(self):
        """The three sparse kernels in execution order."""
        return (self.spmv, self.sptrsv_lower, self.sptrsv_upper)

    def flops_per_iteration(self) -> int:
        """Useful FLOPs of one full PCG iteration."""
        sparse = sum(k.flops() for k in self.kernels)
        return sparse + VectorPhaseModel.flops(self.n)


def build_pcg_program(matrix: CSRMatrix, lower: CSRMatrix,
                      placement: Placement, geometry: TorusGeometry,
                      multicast: str = "tree") -> PCGIterationProgram:
    """Compile a PCG iteration for a mapped (A, L) pair.

    ``geometry`` is the NoC (torus or mesh) whose tiles the placement
    targets; ``multicast`` selects tree-based or point-to-point
    distribution (Fig. 18's two alternatives).
    """
    if placement.n_tiles != geometry.n_tiles:
        raise SimulationError(
            f"placement targets {placement.n_tiles} tiles but the "
            f"machine has {geometry.n_tiles}"
        )
    spmv = build_spmv_program(
        matrix, placement.a_tile, placement.vec_tile, geometry,
        multicast=multicast,
    )
    forward = build_sptrsv_program(
        lower, placement.l_tile, placement.vec_tile, geometry,
        transpose=False, multicast=multicast,
    )
    backward = build_sptrsv_program(
        lower, placement.l_tile, placement.vec_tile, geometry,
        transpose=True, multicast=multicast,
    )
    return PCGIterationProgram(spmv, forward, backward)
