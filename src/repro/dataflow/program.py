"""The full PCG-iteration program (Listing 1 on Azul hardware).

One iteration executes, with barriers between them (each phase consumes
the previous phase's full output through a dot product or solve):

1. SpMV:             ``Ap = A p``
2. vector phase (a): ``alpha``, ``x += alpha p``, ``r -= alpha Ap``
3. forward SpTRSV:   ``w = L^{-1} r``
4. backward SpTRSV:  ``z = L^{-T} w``
5. vector phase (b): ``rz``, ``beta``, ``p = z + beta p``

Phases 2 and 5 are folded into one :class:`VectorPhaseModel`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.torus import TorusGeometry
from repro.config import AzulConfig
from repro.core.placement import Placement
from repro.dataflow.ir import CompiledKernel
from repro.dataflow.spmv_graph import build_spmv_program
from repro.dataflow.sptrsv_graph import build_sptrsv_program
from repro.dataflow.vector_ops import VectorPhaseModel
from repro.sparse.csr import CSRMatrix


@dataclass
class PCGIterationProgram:
    """All compiled kernels of one PCG iteration under one placement."""

    spmv: CompiledKernel
    sptrsv_lower: CompiledKernel
    sptrsv_upper: CompiledKernel
    vector_phase: VectorPhaseModel
    n: int

    @property
    def kernels(self):
        """The three sparse kernels in execution order."""
        return (self.spmv, self.sptrsv_lower, self.sptrsv_upper)

    def flops_per_iteration(self) -> int:
        """Useful FLOPs of one full PCG iteration."""
        sparse = sum(k.flops() for k in self.kernels)
        return sparse + self.vector_phase.flops(self.n)


def build_pcg_program(matrix: CSRMatrix, lower: CSRMatrix,
                      placement: Placement, torus: TorusGeometry,
                      config: AzulConfig,
                      multicast: str = "tree") -> PCGIterationProgram:
    """Compile a PCG iteration for a mapped (A, L) pair.

    ``multicast`` selects tree-based or point-to-point distribution
    (Fig. 18's two alternatives).
    """
    spmv = build_spmv_program(
        matrix, placement.a_tile, placement.vec_tile, torus,
        multicast=multicast,
    )
    forward = build_sptrsv_program(
        lower, placement.l_tile, placement.vec_tile, torus,
        transpose=False, multicast=multicast,
    )
    backward = build_sptrsv_program(
        lower, placement.l_tile, placement.vec_tile, torus,
        transpose=True, multicast=multicast,
    )
    vector_phase = VectorPhaseModel(
        vec_tile=placement.vec_tile, torus=torus, config=config
    )
    return PCGIterationProgram(
        spmv=spmv,
        sptrsv_lower=forward,
        sptrsv_upper=backward,
        vector_phase=vector_phase,
        n=matrix.n_rows,
    )
