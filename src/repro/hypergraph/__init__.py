"""Multilevel multi-constraint hypergraph partitioning.

A from-scratch replacement for PaToH (which the paper uses, Sec. VI-A):
coarsening by connectivity-based matching, greedy initial bisection,
Fiduccia-Mattheyses boundary refinement, and recursive bisection into P
parts.  Supports the multiple balance constraints that Azul's
time-balancing extension requires (Sec. IV-C).
"""

from repro.hypergraph.hgraph import Hypergraph
from repro.hypergraph.metrics import (
    cut_weight,
    connectivity_cut,
    balance_ratios,
    is_balanced,
)
from repro.hypergraph.partitioner import partition, PartitionerOptions

__all__ = [
    "Hypergraph",
    "cut_weight",
    "connectivity_cut",
    "balance_ratios",
    "is_balanced",
    "partition",
    "PartitionerOptions",
]
