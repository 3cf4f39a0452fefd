"""Compiled kernel program: the mapped dataflow of one kernel.

A kernel program is everything the simulator needs to execute one SpMV
or SpTRSV under a given placement: per-tile column segments (the local
FMAC work each arriving value triggers), multicast trees for value
distribution, reduction trees for partial sums, and the counters that
detect partial-sum completion.

The program *representation* lives in :mod:`repro.dataflow.ir`
(:class:`~repro.dataflow.ir.CompiledKernel`, structure-of-arrays) and
the *construction* in :mod:`repro.dataflow.lower`.  This module is the
stable entry point: :func:`build_kernel_program` validates arguments
and lowers.
"""

from __future__ import annotations

import numpy as np

from repro.dataflow.ir import CompiledKernel
from repro.dataflow.lower import lower_kernel


def build_kernel_program(name: str, n: int, rows: np.ndarray,
                         cols: np.ndarray, values: np.ndarray,
                         nnz_tile: np.ndarray, vec_tile: np.ndarray,
                         torus, inv_diag=None,
                         dependent: bool = False,
                         multicast: str = "tree") -> CompiledKernel:
    """Compile nonzero triplets + placement into a kernel program.

    ``rows``/``cols``/``values``/``nnz_tile`` must exclude diagonal
    entries when ``dependent`` (SpTRSV); the diagonal is represented by
    ``inv_diag`` at each row's home tile.  ``multicast`` selects value
    distribution: ``"tree"`` (merged multicast trees, Fig. 18 right) or
    ``"unicast"`` (separate point-to-point sends, Fig. 18 left).
    """
    if multicast not in ("tree", "unicast"):
        raise ValueError(f"unknown multicast mode {multicast!r}")
    return lower_kernel(
        name, n, rows, cols, values, nnz_tile, vec_tile, torus,
        inv_diag=inv_diag, dependent=dependent, multicast=multicast,
    )
