"""Cycle-level simulator of the Azul machine (Sec. V / VI-A).

An operation-granularity discrete-event simulator: PEs issue one
operation per cycle (subject to accumulator RAW hazards, hidden by
fine-grained multithreading), torus links carry one 96-bit message per
cycle, and multicast/reduction trees forward in the routers.  The
simulator computes the actual numeric results of the dataflow, so
functional correctness is checked against the reference kernels exactly
as the paper validates its simulator against Ginkgo.

The core is layered (enforced by ``tools/check_layers.py``)::

    events  — calendar queue + drain loop       (repro.sim.events)
    state   — numeric/functional kernel state   (repro.sim.state)
    fabric  — NoC links + multicast forwarding  (repro.sim.fabric)
    issue   — PE issue timing                   (repro.sim.issue)
    engine  — thin composition root             (repro.sim.engine)

Three PE models reproduce the paper's comparisons:

* :data:`AZUL_PE` — specialized pipeline, multithreaded (the default).
* :data:`AZUL_PE_SINGLE_THREADED` — the Fig. 27 ablation.
* :data:`DALOREX_PE` — in-order core with control-overhead cycles per
  operation (Sec. III).
* :data:`IDEAL_PE` — infinite issue bandwidth (the Fig. 10 idealized
  PEs that expose pure network behavior).
"""

from repro.sim.pe import (
    PEModel,
    AZUL_PE,
    AZUL_PE_SINGLE_THREADED,
    DALOREX_PE,
    IDEAL_PE,
    pe_model_by_name,
    pe_model_names,
)
from repro.sim.engine import KernelResult, KernelSimulator
from repro.sim.events import EventQueue
from repro.sim.fabric import FabricModel, LinkFabric
from repro.sim.issue import BatchedIssue
from repro.sim.state import KernelState, TileState
from repro.sim.machine import AzulMachine, IterationResult
from repro.sim.full_solve import FullSolveResult, simulate_full_pcg
from repro.sim.solver_timing import (
    RECIPES,
    IterationRecipe,
    solver_iteration_cycles,
)
from repro.sim.functional import functional_spmv, functional_sptrsv
from repro.sim.stats import CycleBreakdown, breakdown_from_results

__all__ = [
    "PEModel",
    "AZUL_PE",
    "AZUL_PE_SINGLE_THREADED",
    "DALOREX_PE",
    "IDEAL_PE",
    "pe_model_by_name",
    "pe_model_names",
    "KernelSimulator",
    "KernelResult",
    "EventQueue",
    "FabricModel",
    "LinkFabric",
    "BatchedIssue",
    "KernelState",
    "TileState",
    "AzulMachine",
    "IterationResult",
    "FullSolveResult",
    "simulate_full_pcg",
    "RECIPES",
    "IterationRecipe",
    "solver_iteration_cycles",
    "functional_spmv",
    "functional_sptrsv",
    "CycleBreakdown",
    "breakdown_from_results",
]
