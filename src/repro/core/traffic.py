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
from repro.dataflow.program import build_pcg_program
from repro.sparse.csr import CSRMatrix


def _no_links() -> np.ndarray:
    return np.empty(0, dtype=np.int32)


@dataclass
class KernelTraffic:
    """Traffic of one kernel under one placement.

    ``link_ids``/``link_counts`` are the directed links the kernel's
    trees use, as sorted int32 ids ``src · n_tiles + dst``, and the
    int32 activations of each: the representation of a simulated
    :class:`~repro.sim.stats.KernelResult`.
    """

    name: str
    multicast_messages: int = 0
    reduction_messages: int = 0
    link_activations: int = 0
    link_ids: np.ndarray = field(default_factory=_no_links)
    link_counts: np.ndarray = field(default_factory=_no_links)

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
        links = np.concatenate([k.link_ids for k in self.kernels])
        if not len(links):
            return 0
        _, slot = np.unique(links, return_inverse=True)
        counts = np.concatenate([k.link_counts for k in self.kernels])
        return int(np.bincount(slot, weights=counts).max())


def kernel_traffic(kernel, n_tiles: int) -> KernelTraffic:
    """Traffic of one compiled kernel on a machine of ``n_tiles`` tiles.

    Multicast messages are its destination entries, reduction messages
    its (tile, row) partials produced away from the row's home, and
    link activations its multicast plus reduction edges, counted per
    directed link.
    """
    local_tile = np.repeat(kernel.local_tiles, np.diff(kernel.local_ptr))
    remote = local_tile != kernel.vec_tile[kernel.local_rows]
    src = np.concatenate((kernel.mcast_parent, kernel.red_child))
    dst = np.concatenate((kernel.mcast_child, kernel.red_parent))
    link_ids, link_counts = np.unique(src * n_tiles + dst,
                                      return_counts=True)
    return KernelTraffic(
        kernel.name,
        multicast_messages=len(kernel.mcast_dst),
        reduction_messages=int(np.count_nonzero(remote)),
        link_activations=len(src),
        link_ids=link_ids.astype(np.int32),
        link_counts=link_counts.astype(np.int32),
    )


def count_traffic(kernels, mapper: str, n_tiles: int) -> TrafficReport:
    """Traffic of a PCG iteration's compiled sparse kernels."""
    return TrafficReport(
        mapper=mapper,
        kernels=[kernel_traffic(k, n_tiles) for k in kernels],
    )


def analyze_traffic(placement: Placement, matrix: CSRMatrix,
                    lower: CSRMatrix, torus) -> TrafficReport:
    """Full-iteration traffic: SpMV + forward SpTRSV + backward SpTRSV.

    Compiles the iteration's program over ``torus`` (a torus or mesh
    geometry; :func:`~repro.dataflow.program.build_pcg_program`) and
    counts its kernels; ``lower`` must be a lower-triangular factor
    with a full diagonal, as the SpTRSV compiler requires.
    """
    program = build_pcg_program(matrix, lower, placement, torus)
    return count_traffic(program.kernels, placement.mapper, torus.n_tiles)
