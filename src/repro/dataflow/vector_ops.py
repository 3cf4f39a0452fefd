"""Analytic model of PCG's vector operations.

Dot products, AXPYs, and norms take a small fraction of Azul runtime
(Fig. 22, "Vector Ops") but are not free: dot products are all-reduces
across every tile holding vector elements, followed by a broadcast of
the scalar (the paper notes reductions are where GPUs lose time to
kernel-launch overheads, Sec. II-A).  Azul executes them with the same
reduction/multicast trees; here they are modeled analytically since
their dataflow is dense and regular.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.comm.torus import TorusGeometry
from repro.config import AzulConfig


def _vector_elements_per_tile(vec_tile: np.ndarray, n_tiles: int) -> int:
    """Elements held by the fullest tile (the critical tile)."""
    counts = np.bincount(vec_tile, minlength=n_tiles)
    return int(counts.max()) if len(counts) else 0


def _allreduce_tree_depth(torus) -> int:
    """Hop depth of a global reduction tree rooted at the grid center.

    Delegates to the geometry (``rows/2 + cols/2`` on a torus; larger
    on a mesh, which has no wraparound shortcuts).
    """
    return torus.reduction_depth()


def dot_allreduce_cycles(vec_tile: np.ndarray, torus,
                         config: AzulConfig) -> int:
    """Cycles of one global dot product.

    Local FMACs on the critical tile, a global reduction over the tree
    (one Add per level plus link hops), and a broadcast of the scalar
    back down the tree.  ``torus`` is the NoC geometry (torus or mesh).
    """
    local = _vector_elements_per_tile(vec_tile, config.num_tiles)
    depth = _allreduce_tree_depth(torus)
    reduce_cycles = depth * (config.hop_cycles + 1)  # hop + Add per level
    broadcast_cycles = depth * config.hop_cycles
    pipeline = config.sram_access_cycles + config.fmac_latency_cycles
    return local + pipeline + reduce_cycles + broadcast_cycles


def axpy_cycles(vec_tile: np.ndarray, config: AzulConfig) -> int:
    """Cycles of one AXPY: purely local FMACs, no communication."""
    local = _vector_elements_per_tile(vec_tile, config.num_tiles)
    pipeline = config.sram_access_cycles + config.fmac_latency_cycles
    return local + pipeline


@dataclass
class VectorPhaseModel:
    """Cycle and op accounting for PCG's per-iteration vector work.

    One PCG iteration performs 2 dot products, 1 norm (a dot), and 3
    AXPY-class updates (x, r, p — Listing 1 lines 6-12).
    """

    vec_tile: np.ndarray
    torus: TorusGeometry
    config: AzulConfig
    n_dots: ClassVar[int] = 3
    n_axpys: ClassVar[int] = 3

    def cycles(self) -> int:
        """Total vector-phase cycles of one PCG iteration."""
        dot = dot_allreduce_cycles(self.vec_tile, self.torus, self.config)
        axpy = axpy_cycles(self.vec_tile, self.config)
        return self.n_dots * dot + self.n_axpys * axpy

    @classmethod
    def flops(cls, n: int) -> int:
        """Useful FLOPs of the vector phase (2 per element per op)."""
        return 2 * n * (cls.n_dots + cls.n_axpys)

    def op_counts(self, n: int) -> dict:
        """Approximate op counts by kind for the cycle breakdown."""
        depth = _allreduce_tree_depth(self.torus)
        return {
            "fmac": n * (self.n_dots + self.n_axpys),
            "add": self.n_dots * depth,
            "send": self.n_dots * 2 * depth,
            "mul": 0,
        }
