"""Azul's data-mapping algorithms (the paper's core contribution, Sec. IV).

A *mapping* places every operand value — matrix nonzeros and vector
elements — on a specific tile.  The mapping alone determines NoC
traffic (Sec. IV-A), so the paper compares four strategies (Sec. VI-C):

* **Round Robin** (Dalorex): nonzero ``i`` of the row-major enumeration
  goes to tile ``i mod P``.
* **Block** (Tascade / MPI practice): contiguous chunks of the row-major
  enumeration.
* **SparseP**: coordinate-space 2D chunking with equal-nnz splits.
* **Azul**: hypergraph partitioning with communication-set hyperedges,
  row-edge overweighting, and temporal quantile balance constraints.

Public names are imported on first use, so naming a mapper (the
registry in :mod:`repro.core.registry`) does not load the partitioner.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.core.placement": ("Placement", "placement_stats"),
    "repro.core.round_robin": ("map_round_robin",),
    "repro.core.block": ("map_block",),
    "repro.core.sparsep": ("map_sparsep",),
    "repro.core.azul_mapping": ("map_azul", "build_pcg_hypergraph"),
    "repro.core.quantiles": ("depth_quantile_weights",),
    "repro.core.traffic": ("TrafficReport", "analyze_traffic"),
    "repro.core.registry": ("MAPPERS", "get_mapper"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
