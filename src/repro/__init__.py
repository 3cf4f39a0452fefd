"""repro — a reproduction of "Azul: An Accelerator for Sparse Iterative
Solvers Leveraging Distributed On-Chip Memory" (MICRO 2024).

The package provides, as a library:

* a sparse linear-algebra substrate (:mod:`repro.sparse`) with iterative
  solvers (:mod:`repro.solvers`) and preconditioners
  (:mod:`repro.precond`);
* the paper's preprocessing (coloring/permutation, level analysis,
  :mod:`repro.graph`);
* a from-scratch multilevel hypergraph partitioner
  (:mod:`repro.hypergraph`);
* Azul's data-mapping algorithms and the baselines they are compared
  against (:mod:`repro.core`);
* a cycle-level simulator of the tiled accelerator (:mod:`repro.sim`)
  with communication trees (:mod:`repro.comm`) and dataflow compilation
  (:mod:`repro.dataflow`);
* analytic baseline/area/power models (:mod:`repro.models`);
* the experiment harness reproducing every evaluation table and figure
  (:mod:`repro.experiments`).

``import repro`` imports nothing else: each public name, and each
subpackage reached as an attribute (``repro.sim``), is imported on
first use (see :func:`_lazy_exports`).

Quickstart::

    from repro import (AzulConfig, AzulMachine, map_azul, pcg,
                       IncompleteCholesky)
    from repro.sparse import generators

    A = generators.grid_laplacian_2d(32, 32)
    b = generators.make_rhs(A)
    M = IncompleteCholesky(A)
    reference = pcg(A, b, M)                  # functional solve
    config = AzulConfig(mesh_rows=8, mesh_cols=8)
    placement = map_azul(A, M.lower_factor(), config.num_tiles)
    machine = AzulMachine(config)
    timing = machine.simulate_pcg(A, M.lower_factor(), placement, b)
    print(timing.gflops(), "GFLOP/s,", reference.iterations, "iterations")
"""

import sys

__version__ = "1.0.0"


def _lazy_exports(package: str, exports: dict):
    """PEP 562 ``__getattr__``/``__dir__`` that import names on first use.

    ``exports`` maps each module to the public names ``package`` takes
    from it; a name that is itself a submodule (``repro.sparse``'s
    ``generators``) maps from the package.  Any other public name
    resolves to the submodule of that name, as after an eager import
    (``repro.sim``).  A resolved value is cached in the package, so
    each name costs one import.

    Only a package none of whose public names is also the name of one
    of its submodules may use this: importing such a submodule binds
    it over the package attribute, and the facade would return the
    module (see ``docs/architecture.md``).

    Imports go through the builtin ``__import__``: ``importlib`` is not
    loaded at interpreter start, and ``import repro`` must load nothing.
    """
    origin = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str):
        module = origin.get(name, package)
        if module != package:
            __import__(module)
            value = getattr(sys.modules[module], name)
        elif name.startswith("_"):
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        else:
            submodule = f"{package}.{name}"
            try:
                __import__(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
            value = sys.modules[submodule]
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__


_EXPORTS = {
    "repro.config": ("AzulConfig", "default_config", "paper_config"),
    "repro.errors": (
        "ReproError", "MatrixFormatError", "SingularMatrixError",
        "PreconditionerError", "ConvergenceError", "PartitionError",
        "MappingError", "CapacityError", "SimulationError",
    ),
    "repro.sparse": ("COOMatrix", "CSRMatrix", "CSCMatrix"),
    "repro.solvers": (
        "SolveOptions", "SolveResult", "pcg", "conjugate_gradient",
        "bicgstab", "chebyshev", "gmres", "power_iteration",
    ),
    "repro.precond": (
        "IdentityPreconditioner", "JacobiPreconditioner",
        "IncompleteCholesky", "IncompleteLU", "SymmetricGaussSeidel",
        "SSORPreconditioner",
    ),
    "repro.core": (
        "Placement", "map_azul", "map_block", "map_round_robin",
        "map_sparsep", "analyze_traffic",
    ),
    "repro.sim": ("AzulMachine", "IterationResult", "AZUL_PE",
                  "DALOREX_PE", "IDEAL_PE"),
    "repro.models": ("GPUModel", "AlreschaModel", "area_report",
                     "power_report"),
    "repro.cache": ("ArtifactCache", "CacheStats"),
    "repro.parallel": ("SimPoint", "default_jobs"),
    "repro.experiments.common": ("ExperimentSession",),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__all__.append("__version__")

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
