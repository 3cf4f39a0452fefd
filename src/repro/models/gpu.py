"""Analytic V100 GPU model for PCG (the paper's GPU baseline).

The paper measures Ginkgo's PCG on a V100 (Figs. 1, 3, 7).  Offline we
model the same three bottlenecks it identifies:

* **Memory bandwidth** — sparse matrices stream from HBM every
  iteration with no reuse (Sec. I), so SpMV/SpTRSV time is at least
  ``bytes / effective_bandwidth``.
* **SpTRSV dependence levels** — each level of the triangular solve is
  a dependent step with launch/sync cost, so few-level (colored)
  matrices run far faster (Fig. 7).
* **Kernel-launch and reduction overheads** — dot products force
  kernel boundaries and device synchronization (Sec. II-A).

Default constants are calibrated so paper-scale matrices land in the
observed 0.1-0.6%-of-peak utilization band of Fig. 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import spmv_flops, sptrsv_flops
from repro.sparse.schedule import triangular_schedule


@dataclass(frozen=True)
class GPUIterationTime:
    """Seconds per PCG iteration, by kernel class (Fig. 3's categories)."""

    spmv: float
    sptrsv: float
    vector: float

    @property
    def total(self) -> float:
        return self.spmv + self.sptrsv + self.vector

    def fractions(self) -> dict:
        """Normalized runtime breakdown."""
        total = self.total
        return {
            "spmv": self.spmv / total,
            "sptrsv": self.sptrsv / total,
            "vector": self.vector / total,
        }


@dataclass(frozen=True)
class GPUModel:
    """A roofline + level-latency model of PCG on a data-center GPU.

    Attributes
    ----------
    peak_flops:
        Double-precision peak (V100: 7 TFLOP/s).
    mem_bandwidth:
        HBM bandwidth in bytes/s (V100: 900 GB/s).
    bandwidth_efficiency:
        Achievable fraction of peak bandwidth for sparse streams.
    kernel_launch_s:
        Cost of one kernel launch / device sync.
    level_sync_s:
        Cost per SpTRSV dependence level (sync between level kernels).
    nnz_bytes:
        Bytes streamed per nonzero (8B value + 4B index).
    """

    peak_flops: float = 7.0e12
    mem_bandwidth: float = 900.0e9
    bandwidth_efficiency: float = 0.80
    kernel_launch_s: float = 5.0e-6
    level_sync_s: float = 2.0e-6
    nnz_bytes: int = 12
    vector_bytes: int = 8

    #: Kernel launches per PCG iteration beyond SpMV/SpTRSV: dots,
    #: AXPYs, and the syncs around them (Listing 1 lines 6-12).
    vector_kernels: int = 8

    @property
    def effective_bandwidth(self) -> float:
        return self.mem_bandwidth * self.bandwidth_efficiency

    # ------------------------------------------------------------------
    def spmv_time(self, matrix: CSRMatrix) -> float:
        """One SpMV: matrix streamed once from HBM, plus a launch."""
        bytes_moved = (
            matrix.nnz * self.nnz_bytes
            + 2 * matrix.n_rows * self.vector_bytes
        )
        return bytes_moved / self.effective_bandwidth + self.kernel_launch_s

    def sptrsv_time(self, lower: CSRMatrix) -> float:
        """One triangular solve: bandwidth plus per-level sync cost.

        The level count is that of ``lower``'s cached triangular
        schedule.
        """
        n_levels = triangular_schedule(lower).n_levels
        bytes_moved = (
            lower.nnz * self.nnz_bytes
            + 2 * lower.n_rows * self.vector_bytes
        )
        stream = bytes_moved / self.effective_bandwidth
        levels = n_levels * self.level_sync_s
        return stream + levels + self.kernel_launch_s

    def vector_time(self, n: int) -> float:
        """PCG's per-iteration vector work: launches dominate."""
        bytes_moved = 14 * n * self.vector_bytes  # ~7 vector sweeps r/w
        return (
            bytes_moved / self.effective_bandwidth
            + self.vector_kernels * self.kernel_launch_s
        )

    # ------------------------------------------------------------------
    def pcg_iteration_time(self, matrix: CSRMatrix,
                           lower: CSRMatrix) -> GPUIterationTime:
        """Seconds per PCG iteration (one SpMV + two SpTRSVs + vectors)."""
        return GPUIterationTime(
            spmv=self.spmv_time(matrix),
            sptrsv=2 * self.sptrsv_time(lower),
            vector=self.vector_time(matrix.n_rows),
        )

    def pcg_flops_per_iteration(self, matrix: CSRMatrix,
                                lower: CSRMatrix) -> int:
        """Useful FLOPs per iteration (same accounting as Azul's)."""
        return (
            spmv_flops(matrix)
            + 2 * sptrsv_flops(lower)
            + 2 * matrix.n_rows * 6
        )

    def gflops(self, matrix: CSRMatrix, lower: CSRMatrix) -> float:
        """Sustained GFLOP/s on PCG."""
        time = self.pcg_iteration_time(matrix, lower).total
        return self.pcg_flops_per_iteration(matrix, lower) / time / 1e9

    def utilization(self, matrix: CSRMatrix, lower: CSRMatrix) -> float:
        """Fraction of peak throughput achieved (Fig. 1's right axis)."""
        return self.gflops(matrix, lower) * 1e9 / self.peak_flops
