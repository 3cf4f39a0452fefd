"""Analytic (first-order) performance model of the Azul machine.

The event simulator is exact but costs seconds per kernel; exploring
mappings at the paper's 4096-tile scale needs something cheaper.  This
model predicts kernel cycles from *static* quantities only — per-tile
operation counts, per-link traffic, and the dependence critical path —
using the classic bound composition:

    cycles ~ max(compute bound, network bound, critical path) + startup

* **compute bound**: the busiest PE's issue slots (FMACs + Adds + Sends
  it must issue, times the PE's issue cost);
* **network bound**: the busiest directed link's flit count (one flit
  per cycle per link);
* **critical path** (SpTRSV only): the longest dependence chain, each
  level paying the ALU latency plus an average hop traversal.

The ``model_validation`` experiment quantifies the model's error
against the cycle-level simulator across matrices and mappings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.torus import TorusGeometry
from repro.config import AzulConfig
from repro.core.placement import Placement
from repro.core.traffic import TrafficReport
from repro.dataflow.vector_ops import VectorPhaseModel
from repro.graph.levels import critical_path_ops
from repro.sparse.csr import CSRMatrix
from repro.sparse.schedule import triangular_schedule


@dataclass(frozen=True)
class KernelPrediction:
    """Predicted cycles of one kernel, with the contributing bounds."""

    name: str
    compute_bound: float
    network_bound: float
    critical_path: float
    startup: float

    @property
    def cycles(self) -> float:
        return max(
            self.compute_bound, self.network_bound, self.critical_path
        ) + self.startup

    def dominant_bound(self) -> str:
        """Which bound limits this kernel (``compute``/``network``/
        ``dependences``)."""
        bounds = {
            "compute": self.compute_bound,
            "network": self.network_bound,
            "dependences": self.critical_path,
        }
        return max(bounds, key=bounds.get)


@dataclass(frozen=True)
class IterationPrediction:
    """Predicted cycles of a full PCG iteration."""

    kernels: tuple
    vector_cycles: int
    flops: int
    config: AzulConfig

    @property
    def total_cycles(self) -> float:
        return sum(k.cycles for k in self.kernels) + self.vector_cycles

    def gflops(self) -> float:
        seconds = self.total_cycles / self.config.frequency_hz
        return self.flops / seconds / 1e9 if seconds > 0 else 0.0


def _per_tile_ops(rows: np.ndarray, tiles: np.ndarray, vec_tile: np.ndarray,
                  n: int, n_tiles: int, issue: int) -> float:
    """Issue slots of the busiest tile: local FMACs plus the Adds/Sends
    induced by rows it homes that are spread over other tiles."""
    fmacs = np.bincount(tiles, minlength=n_tiles).astype(np.float64)
    # Each row spread over k tiles induces ~k partial messages; Adds
    # land at the home, Sends at the sources.  Approximate both with
    # one extra op charged to the home tile per foreign source tile.
    order = np.lexsort((tiles, rows))
    sorted_rows = rows[order]
    sorted_tiles = tiles[order]
    boundaries = np.concatenate((
        [True], (sorted_rows[1:] != sorted_rows[:-1])
        | (sorted_tiles[1:] != sorted_tiles[:-1])
    ))
    unique_rows = sorted_rows[boundaries]
    unique_tiles = sorted_tiles[boundaries]
    extra = np.zeros(n_tiles)
    foreign = unique_tiles != vec_tile[unique_rows]
    np.add.at(extra, vec_tile[unique_rows[foreign]], 1.0)  # Add at home
    np.add.at(extra, unique_tiles[foreign], 1.0)           # Send at source
    return float((fmacs + extra).max()) * issue


def _network_bound(kernel_traffic) -> float:
    """Flits on the kernel's busiest directed link (0 without traffic)."""
    if kernel_traffic is None:
        return 0.0
    return float(kernel_traffic.link_counts.max(initial=0))


def predict_spmv(matrix: CSRMatrix, placement: Placement,
                 torus: TorusGeometry, config: AzulConfig,
                 kernel_traffic=None) -> KernelPrediction:
    """Predict SpMV cycles from placement statistics.

    ``kernel_traffic`` is the SpMV's
    :class:`~repro.core.traffic.KernelTraffic`; without it the network
    bound is 0.
    """
    n = matrix.n_rows
    rows = np.repeat(np.arange(n), matrix.row_nnz())
    compute = _per_tile_ops(
        rows, placement.a_tile, placement.vec_tile, n,
        config.num_tiles, 1,
    )
    network = _network_bound(kernel_traffic)
    startup = (
        config.sram_access_cycles + config.fmac_latency_cycles
        + torus.reduction_depth() * config.hop_cycles
    )
    return KernelPrediction(
        name="spmv",
        compute_bound=compute,
        network_bound=network,
        critical_path=0.0,
        startup=startup,
    )


def predict_sptrsv(lower: CSRMatrix, placement: Placement,
                   torus: TorusGeometry, config: AzulConfig,
                   kernel_traffic=None, transpose: bool = False,
                   ) -> KernelPrediction:
    """Predict triangular-solve cycles including the dependence bound.

    ``kernel_traffic`` is the solve's
    :class:`~repro.core.traffic.KernelTraffic`; without it the network
    bound is 0.
    """
    n = lower.n_rows
    rows = np.repeat(np.arange(n), lower.row_nnz())
    compute = _per_tile_ops(
        rows, placement.l_tile, placement.vec_tile, n,
        config.num_tiles, 1,
    )
    network = _network_bound(kernel_traffic)
    # Dependence bound: the weighted critical path pays one issue slot
    # per op; each level additionally pays ALU latency plus an average
    # traversal toward the next dependent row.
    n_levels = triangular_schedule(lower).n_levels
    chain_ops = critical_path_ops(lower)
    avg_hops = (torus.rows + torus.cols) / 4.0
    per_level_latency = (
        config.sram_access_cycles + config.fmac_latency_cycles
        + avg_hops * config.hop_cycles
    )
    critical = chain_ops + n_levels * per_level_latency
    return KernelPrediction(
        name="sptrsv_upper" if transpose else "sptrsv_lower",
        compute_bound=compute,
        network_bound=network,
        critical_path=critical,
        startup=config.sram_access_cycles + config.fmac_latency_cycles,
    )


def predict_iteration(matrix: CSRMatrix, lower: CSRMatrix,
                      placement: Placement, config: AzulConfig,
                      traffic: TrafficReport) -> IterationPrediction:
    """Predict a full PCG iteration's cycles and throughput.

    ``traffic`` is the placement's static traffic report
    (:func:`repro.core.traffic.analyze_traffic`, or
    ``ExperimentSession.traffic`` over the cached program): its three
    kernels give the network bounds.
    """
    from repro.comm import make_geometry
    from repro.sparse.ops import spmv_flops, sptrsv_flops

    torus = make_geometry(config)
    spmv = predict_spmv(matrix, placement, torus, config,
                        kernel_traffic=traffic.kernels[0])
    forward = predict_sptrsv(
        lower, placement, torus, config,
        kernel_traffic=traffic.kernels[1],
    )
    backward = predict_sptrsv(
        lower, placement, torus, config,
        kernel_traffic=traffic.kernels[2], transpose=True,
    )
    vector = VectorPhaseModel(
        vec_tile=placement.vec_tile, torus=torus, config=config
    )
    flops = (
        spmv_flops(matrix) + 2 * sptrsv_flops(lower)
        + vector.flops(matrix.n_rows)
    )
    return IterationPrediction(
        kernels=(spmv, forward, backward),
        vector_cycles=vector.cycles(),
        flops=flops,
        config=config,
    )
