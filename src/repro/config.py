"""Hardware configuration for the simulated Azul machine.

:class:`AzulConfig` mirrors Table III of the paper.  The paper's default
machine is a 64x64 grid of tiles at 2 GHz; pure-Python simulation is
tractable at smaller grids, so :func:`default_config` returns an 8x8
machine and the scaling experiments (Fig. 28) use 16x16 and 32x32.  All
derived quantities (peak FLOP/s, SRAM capacity, bisection bandwidth) are
computed from the primitive parameters, so scaled configurations stay
self-consistent.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any, Dict

#: Worker-count environment setting (read by :mod:`repro.parallel`).
ENV_JOBS = "REPRO_JOBS"


def overrides() -> Dict[str, Dict[str, Any]]:
    """Effective values of every ``REPRO_*`` environment setting.

    Each entry reports the raw environment value (``None`` when unset)
    and the *effective* setting the pipeline resolves it to, parsed by
    the same functions the cache and the sweep executor use.  Emitted
    into every metrics artifact so runs are self-describing.
    """
    from repro.cache.store import (
        ENV_CACHE_DIR,
        ENV_DISABLE,
        ENV_MAX_BYTES,
        default_cache_root,
        env_truthy,
        parse_max_bytes,
    )
    from repro.parallel import default_jobs

    dir_raw = os.environ.get(ENV_CACHE_DIR)
    max_raw = os.environ.get(ENV_MAX_BYTES)
    disable_raw = os.environ.get(ENV_DISABLE)
    return {
        ENV_CACHE_DIR: {
            "raw": dir_raw,
            "effective": dir_raw or str(default_cache_root()),
        },
        ENV_MAX_BYTES: {"raw": max_raw, "effective": parse_max_bytes(max_raw)},
        ENV_DISABLE: {
            "raw": disable_raw,
            "effective": env_truthy(disable_raw),
        },
        ENV_JOBS: {"raw": os.environ.get(ENV_JOBS),
                   "effective": default_jobs()},
    }


@dataclass(frozen=True)
class AzulConfig:
    """Parameters of a simulated Azul machine (paper Table III).

    The PE's issue behaviour (issue cost, multithreading and its thread
    contexts) is a :class:`repro.sim.pe.PEModel`, chosen per
    simulation, not part of the machine configuration.

    Attributes
    ----------
    mesh_rows, mesh_cols:
        Tile-grid dimensions.  The paper's default is 64x64.
    frequency_hz:
        Clock frequency; 2 GHz in the paper.
    data_sram_bytes:
        Per-tile Data SRAM holding matrix nonzeros and vector values
        (72 KB in the paper).
    accum_sram_bytes:
        Per-tile Accumulator SRAM holding partial sums (36 KB).
    sram_access_cycles:
        Pipelined SRAM access latency in cycles (2 in the paper;
        swept 1-4 in Fig. 26).
    hop_cycles:
        NoC per-hop latency in cycles (1 in the paper; swept 1-4 in
        Fig. 25).
    topology:
        NoC topology: ``"torus"`` (the paper's 2D torus) or ``"mesh"``
        (no wraparound; the ``abl_topology`` design-space ablation).
    link_bits:
        NoC link width; 96 bits carries one 64-bit double plus 32 bits
        of metadata per cycle.
    fmac_latency_cycles:
        Cycles from issue until an FMAC's accumulator write is visible
        (the compute + accumulator-read portion of the pipeline; 4).
    msg_buffer_entries:
        Register-based incoming-message buffer per tile; overflow spills
        to the Data SRAM (modeled as extra SRAM traffic).
    nnz_bytes:
        Storage footprint of one matrix nonzero (64-bit value + 32-bit
        metadata = 12 bytes, matching the 96-bit SRAM word).
    vector_bytes:
        Storage per vector element (one 64-bit double).
    """

    mesh_rows: int = 8
    mesh_cols: int = 8
    topology: str = "torus"
    frequency_hz: float = 2.0e9
    data_sram_bytes: int = 72 * 1024
    accum_sram_bytes: int = 36 * 1024
    sram_access_cycles: int = 2
    hop_cycles: int = 1
    link_bits: int = 96
    fmac_latency_cycles: int = 4
    msg_buffer_entries: int = 16
    nnz_bytes: int = 12
    vector_bytes: int = 8

    def __post_init__(self):
        if self.mesh_rows < 1 or self.mesh_cols < 1:
            raise ValueError("mesh dimensions must be positive")
        if self.hop_cycles < 1:
            raise ValueError("hop latency must be at least one cycle")
        if self.sram_access_cycles < 1:
            raise ValueError("SRAM latency must be at least one cycle")
        if self.topology not in ("torus", "mesh"):
            raise ValueError(f"unknown topology {self.topology!r}")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def num_tiles(self) -> int:
        """Total number of tiles in the grid."""
        return self.mesh_rows * self.mesh_cols

    @property
    def sram_bytes_per_tile(self) -> int:
        """Combined Data + Accumulator SRAM per tile."""
        return self.data_sram_bytes + self.accum_sram_bytes

    @property
    def total_sram_bytes(self) -> int:
        """Aggregate on-chip SRAM across all tiles."""
        return self.num_tiles * self.sram_bytes_per_tile

    @property
    def peak_flops(self) -> float:
        """Peak FLOP/s: one FMAC (2 FLOPs) per PE per cycle."""
        return 2.0 * self.num_tiles * self.frequency_hz

    @property
    def sram_bandwidth_bytes(self) -> float:
        """Aggregate scratchpad bandwidth (one 96-bit+96-bit access/cycle)."""
        return self.num_tiles * (2 * self.link_bits / 8) * self.frequency_hz

    @property
    def bisection_links(self) -> int:
        """Number of links crossing the bisection of the 2D torus.

        Cutting a torus in half crosses ``2 * min_dim`` links (wrap links
        double the mesh count), in each direction.
        """
        return 2 * min(self.mesh_rows, self.mesh_cols) * 2

    @property
    def bisection_bandwidth_bytes(self) -> float:
        """NoC bisection bandwidth in bytes/s."""
        return self.bisection_links * (self.link_bits / 8) * self.frequency_hz

    # ------------------------------------------------------------------
    # Cache identity
    # ------------------------------------------------------------------
    def cache_key(self) -> str:
        """Stable digest of every primitive parameter.

        Used by :mod:`repro.cache` to key artifacts derived from this
        configuration: two configs with equal fields share a key, and
        any field change (including ones added in future versions)
        changes it.
        """
        from dataclasses import asdict

        from repro.cache.keys import stable_digest

        return stable_digest("azul-config", asdict(self))

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    def scaled(self, factor: int) -> "AzulConfig":
        """Return a copy with the tile grid scaled by ``factor`` per side."""
        if factor < 1:
            raise ValueError("scale factor must be >= 1")
        return replace(
            self,
            mesh_rows=self.mesh_rows * factor,
            mesh_cols=self.mesh_cols * factor,
        )

    def with_(self, **kwargs) -> "AzulConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


def default_config() -> AzulConfig:
    """The default simulated machine: an 8x8-tile scale model of Table III."""
    return AzulConfig()


def paper_config() -> AzulConfig:
    """The paper's full 64x64-tile configuration (Table III).

    Useful for analytic models (area, power, peak rates); cycle-level
    simulation at this size is impractical in pure Python.
    """
    return AzulConfig(mesh_rows=64, mesh_cols=64)
