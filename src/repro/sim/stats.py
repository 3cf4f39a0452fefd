"""Simulation results and cycle-breakdown statistics (Fig. 21 machinery).

:class:`KernelResult` and :class:`IterationResult` are what the
simulator returns and the ``simulations`` cache stores.  They live here,
beside the breakdown helpers and away from the engine, so that
unpickling a cached result imports numpy and :mod:`repro.config` only.

:func:`breakdown_from_results` converts kernel results into the paper's
PE cycle-breakdown categories: issue slots spent on Fmac/Add/Mul/Send
operations versus stalls (idle issue slots while the kernel was in
flight).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import AzulConfig


@dataclass
class KernelResult:
    """Outcome of simulating one kernel.

    ``cycles`` is the completion time; ``output`` the computed result
    vector (``y`` for SpMV, ``x`` for SpTRSV); ``op_counts`` executed
    operations by kind (``fmac``/``add``/``mul``/``send``);
    ``busy_slots`` issue slots consumed across all PEs; ``per_link``
    activations per directed link; ``spills`` messages that overflowed
    the register buffer into the Data SRAM; ``issue_trace`` (when
    recording was requested) one ``(cycle, tile, op_kind)`` tuple per
    issued operation, for timeline/heatmap analysis.  ``n_tiles``
    records the simulated machine's tile count so the trace helpers in
    :mod:`repro.sim.trace` need no redundant caller-side geometry.
    """

    name: str
    cycles: int
    output: np.ndarray
    op_counts: Dict[str, int]
    busy_slots: int
    link_activations: int
    per_link: Dict[Tuple[int, int], int] = field(default_factory=dict)
    spills: int = 0
    #: Total cycles flits waited for busy links (congestion measure)
    link_queue_delay: int = 0
    issue_trace: Optional[List[Tuple[int, int, int]]] = None
    #: Tile count of the machine that produced this result (``None``
    #: only when a caller builds a result without it).
    n_tiles: Optional[int] = None

    def flops(self) -> int:
        """FLOPs executed, including distribution-overhead Adds.

        Reported GFLOP/s uses the *algorithmic* FLOP count; this
        counter additionally includes the standalone Adds that
        inter-tile reductions introduce.
        """
        return (
            2 * self.op_counts["fmac"]
            + self.op_counts["add"]
            + self.op_counts["mul"]
        )


@dataclass
class IterationResult:
    """Timing of one simulated PCG iteration.

    Attributes
    ----------
    kernel_results:
        The three sparse-kernel results (spmv, forward, backward).
    vector_cycles:
        Cycles of the analytic vector phase.
    total_cycles:
        Sum over all phases (phases are dependence-separated).
    flops_per_iteration:
        Useful algorithmic FLOPs of one iteration.
    """

    kernel_results: List[KernelResult]
    vector_cycles: int
    total_cycles: int
    flops_per_iteration: int
    config: Optional[AzulConfig] = None
    vector_ops: Optional[Dict[str, int]] = None

    def gflops(self) -> float:
        """Steady-state useful GFLOP/s."""
        if self.total_cycles == 0 or self.config is None:
            return 0.0
        seconds = self.total_cycles / self.config.frequency_hz
        return self.flops_per_iteration / seconds / 1e9

    def utilization(self) -> float:
        """Fraction of the machine's peak FLOP/s achieved."""
        if self.config is None:
            return 0.0
        return self.gflops() * 1e9 / self.config.peak_flops

    def cycles_by_phase(self) -> Dict[str, int]:
        """Per-phase cycles (the Fig. 22 breakdown)."""
        phases = {k.name: k.cycles for k in self.kernel_results}
        phases["vector"] = self.vector_cycles
        return phases

    def op_totals(self) -> Dict[str, int]:
        """Operations issued by kind, across kernels and vector phase."""
        totals = {"fmac": 0, "add": 0, "mul": 0, "send": 0}
        for result in self.kernel_results:
            for kind, count in result.op_counts.items():
                totals[kind] += count
        if self.vector_ops:
            for kind, count in self.vector_ops.items():
                totals[kind] += count
        return totals

    def link_activations(self) -> int:
        """Total NoC link traversals of one iteration."""
        return sum(r.link_activations for r in self.kernel_results)


@dataclass(frozen=True)
class CycleBreakdown:
    """Fractions of PE issue slots by activity; sums to 1."""

    fmac: float
    add: float
    mul: float
    send: float
    stall: float

    def as_dict(self) -> dict:
        return {
            "fmac": self.fmac,
            "add": self.add,
            "mul": self.mul,
            "send": self.send,
            "stall": self.stall,
        }


def breakdown_from_results(kernel_results, n_tiles: int,
                           issue_cycles: int = 1,
                           extra_cycles: int = 0,
                           extra_ops: Optional[dict] = None) -> CycleBreakdown:
    """Aggregate kernel results into a machine-wide cycle breakdown.

    Total issue slots are ``(sum of kernel cycles + extra_cycles) *
    n_tiles``; op slots are the issued operation counts times the PE's
    per-op issue cost; the remainder is stalls (idle PEs waiting on
    dependences, messages, or load imbalance).
    """
    total_cycles = sum(r.cycles for r in kernel_results) + extra_cycles
    total_slots = max(total_cycles * n_tiles, 1)
    ops = {"fmac": 0, "add": 0, "mul": 0, "send": 0}
    for result in kernel_results:
        for kind, count in result.op_counts.items():
            ops[kind] += count
    if extra_ops:
        for kind, count in extra_ops.items():
            ops[kind] = ops.get(kind, 0) + count
    fractions = {
        kind: min(count * issue_cycles / total_slots, 1.0)
        for kind, count in ops.items()
    }
    used = sum(fractions.values())
    return CycleBreakdown(
        fmac=fractions["fmac"],
        add=fractions["add"],
        mul=fractions["mul"],
        send=fractions["send"],
        stall=max(0.0, 1.0 - used),
    )
