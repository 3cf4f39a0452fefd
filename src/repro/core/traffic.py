"""Static NoC-traffic analysis of a placement (Figs. 10/11 machinery).

Given a placement, every kernel's communication is fully determined
(Sec. IV-A):

* SpMV: ``v_j`` is multicast from its home down column ``j``'s tiles;
  per-row partial sums are reduced into ``y_i``'s home.
* forward SpTRSV with L: solved ``x_j`` is multicast down L's column
  ``j``; row partials reduce into the solve site of ``x_i``.
* backward SpTRSV with L^T: columns and rows swap roles (L^T's column
  ``j`` is L's row ``j``).

The traffic is counted over the compiled kernels
(:class:`~repro.dataflow.ir.CompiledKernel`), so the analysis reads
the very multicast and reduction trees the simulator runs.  Messages
follow the paper's model — a set spanning N tiles induces N-1
messages — and every tree edge is one link activation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.placement import Placement
from repro.dataflow.spmv_graph import build_spmv_program
from repro.dataflow.sptrsv_graph import build_sptrsv_program
from repro.sparse.csr import CSRMatrix


@dataclass
class KernelTraffic:
    """Traffic of one kernel under one placement."""

    name: str
    multicast_messages: int = 0
    reduction_messages: int = 0
    link_activations: int = 0
    per_link: dict = field(default_factory=dict)

    @property
    def total_messages(self) -> int:
        return self.multicast_messages + self.reduction_messages


@dataclass
class TrafficReport:
    """Traffic of a full PCG iteration under one placement."""

    mapper: str
    kernels: list

    @property
    def total_messages(self) -> int:
        return sum(k.total_messages for k in self.kernels)

    @property
    def total_link_activations(self) -> int:
        return sum(k.link_activations for k in self.kernels)

    def max_link_load(self) -> int:
        """Activations on the single busiest directed link."""
        load = {}
        for kernel in self.kernels:
            for link, count in kernel.per_link.items():
                load[link] = load.get(link, 0) + count
        return max(load.values()) if load else 0


def kernel_traffic(kernel) -> KernelTraffic:
    """Traffic of one compiled kernel.

    Multicast messages are its destination entries, reduction messages
    its (row, tile) partials produced away from the row's home, and
    link activations its multicast plus reduction edges; ``per_link``
    maps each directed ``(src, dst)`` link to its activation count.
    """
    remote = kernel.local_tiles[:, None] != kernel.vec_tile
    src = np.concatenate((kernel.mcast_parent, kernel.red_child))
    dst = np.concatenate((kernel.mcast_child, kernel.red_parent))
    span = int(max(src.max(), dst.max())) + 1 if len(src) else 1
    links, counts = np.unique(src * span + dst, return_counts=True)
    return KernelTraffic(
        kernel.name,
        multicast_messages=len(kernel.mcast_dst),
        reduction_messages=int(np.count_nonzero(kernel.local_counts[remote])),
        link_activations=len(src),
        per_link=dict(zip(zip((links // span).tolist(),
                              (links % span).tolist()),
                          counts.tolist())),
    )


def count_traffic(kernels, mapper: str) -> TrafficReport:
    """Traffic of a PCG iteration's compiled sparse kernels."""
    return TrafficReport(
        mapper=mapper, kernels=[kernel_traffic(k) for k in kernels],
    )


def analyze_traffic(placement: Placement, matrix: CSRMatrix,
                    lower: CSRMatrix, torus) -> TrafficReport:
    """Full-iteration traffic: SpMV + forward SpTRSV + backward SpTRSV.

    Compiles the three kernels over ``torus`` (a torus or mesh
    geometry) and counts them; ``lower`` must be a lower-triangular
    factor with a full diagonal, as the SpTRSV compiler requires.
    """
    kernels = [build_spmv_program(matrix, placement.a_tile,
                                  placement.vec_tile, torus)]
    for transpose in (False, True):
        kernels.append(build_sptrsv_program(
            lower, placement.l_tile, placement.vec_tile, torus,
            transpose=transpose,
        ))
    return count_traffic(kernels, placement.mapper)
