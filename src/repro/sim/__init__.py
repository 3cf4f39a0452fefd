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

The result types (:class:`KernelResult`, :class:`IterationResult`) live
in the light :mod:`repro.sim.stats`, so unpickling a cached simulation
loads neither the engine nor the dataflow compiler.  Public names are
imported on first use.

Three PE models reproduce the paper's comparisons:

* :data:`AZUL_PE` — specialized pipeline, multithreaded (the default).
* :data:`AZUL_PE_SINGLE_THREADED` — the Fig. 27 ablation.
* :data:`DALOREX_PE` — in-order core with control-overhead cycles per
  operation (Sec. III).
* :data:`IDEAL_PE` — infinite issue bandwidth (the Fig. 10 idealized
  PEs that expose pure network behavior).
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.sim.pe": (
        "PEModel", "AZUL_PE", "AZUL_PE_SINGLE_THREADED", "DALOREX_PE",
        "IDEAL_PE", "pe_model_by_name", "pe_model_names",
    ),
    "repro.sim.engine": ("KernelSimulator",),
    "repro.sim.events": ("EventQueue",),
    "repro.sim.fabric": ("FabricModel", "LinkFabric"),
    "repro.sim.issue": ("BatchedIssue",),
    "repro.sim.state": ("KernelState", "TileState"),
    "repro.sim.machine": ("AzulMachine",),
    "repro.sim.full_solve": ("FullSolveResult", "simulate_full_pcg"),
    "repro.sim.solver_timing": (
        "RECIPES", "IterationRecipe", "solver_iteration_cycles",
    ),
    "repro.sim.functional": ("functional_spmv", "functional_sptrsv"),
    "repro.sim.stats": (
        "KernelResult", "IterationResult", "CycleBreakdown",
        "breakdown_from_results",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
