"""SpMV dataflow program construction (Fig. 12-15 of the paper).

Each vector element ``v_j`` is multicast from its home down column
``j``'s tiles; each tile scales its local column segment into per-row
partial sums; completed partials reduce into ``y_i``'s home.
"""

from __future__ import annotations

import numpy as np

from repro.comm.torus import TorusGeometry
from repro.dataflow.ir import CompiledKernel
from repro.dataflow.kernel_program import build_kernel_program
from repro.sparse.csr import CSRMatrix


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
    return build_kernel_program(
        name="spmv",
        n=matrix.n_rows,
        rows=rows,
        cols=matrix.indices,
        values=matrix.data,
        nnz_tile=np.asarray(a_tile, dtype=np.int64),
        vec_tile=vec_tile,
        torus=torus,
        dependent=False,
        multicast=multicast,
    )
