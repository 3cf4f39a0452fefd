"""Dataflow task-graph construction (Sec. IV-A).

Azul kernels execute as dataflow graphs of tasks: all memory accesses
are local, and inter-tile communication is messages that trigger tasks
on the destination tile (Fig. 13).  This subpackage compiles a mapped
kernel (matrix + placement) into the per-tile task structures, multicast
trees, and reduction trees the simulator executes.
"""

from repro.dataflow.ir import CompiledKernel
from repro.dataflow.lower import lower_kernel
from repro.dataflow.vector_ops import (
    VectorPhaseModel,
    dot_allreduce_cycles,
    axpy_cycles,
)
from repro.dataflow.program import (
    PCGIterationProgram,
    build_pcg_program,
    build_spmv_program,
    build_sptrsv_program,
)

__all__ = [
    "CompiledKernel",
    "lower_kernel",
    "build_spmv_program",
    "build_sptrsv_program",
    "VectorPhaseModel",
    "dot_allreduce_cycles",
    "axpy_cycles",
    "PCGIterationProgram",
    "build_pcg_program",
]
