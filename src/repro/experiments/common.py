"""Shared experiment infrastructure: the :class:`ExperimentSession`
facade over preparation, mapping, and simulation.

Preparing a matrix for an experiment means: build the suite analog,
color + permute it (the paper's default preprocessing), and compute the
IC(0) factor.  Azul mappings are expensive (Sec. VI-D), so placements
— and now steady-state simulation results — are cached through
:mod:`repro.cache`: a resilient, checksummed, size-capped artifact
store shared across processes.  A corrupted cache entry is quarantined
and transparently recomputed; it can never crash an experiment.

API
---
The session facade owns configuration, scale, partitioner preset, and
its caches::

    from repro.experiments.common import ExperimentSession

    session = ExperimentSession(config, scale=1, preset="speed")
    prepared = session.prepare("tmt_sym")
    placement = session.placement("tmt_sym", "azul")
    result = session.simulate("tmt_sym", mapper="azul", pe="azul")

Mapper / PE / matrix / preset names are validated eagerly against the
registries with actionable messages (including close-match hints).

The pre-1.x module-level free functions (``prepare`` /
``get_placement`` / ``simulate``) have been removed; the session
facade is the only entry point.

Observability
-------------
Every pipeline stage is instrumented through :mod:`repro.obs` (no-ops
unless enabled): ``pipeline.prepare`` / ``pipeline.place`` /
``pipeline.simulate`` timers+spans, ``compile.requests`` /
``compile.cache_hits`` / ``compile.builds`` counters plus a
``compile.build`` timer around program lowering, cache counters from
:mod:`repro.cache`, and — when tracing is enabled — simulator issue
traces bridged into the Chrome-trace export.  ``simulate(...,
trace=True)`` (default: :func:`repro.obs.tracing_enabled`) records
per-op issue logs; :meth:`ExperimentSession.export_trace` /
:meth:`export_metrics` write the artifacts.
"""

from __future__ import annotations

import difflib
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

import repro.obs as obs
from repro.cache import MISS, NPZ, PICKLE, ArtifactCache
from repro.config import AzulConfig
from repro.core.placement import Placement
from repro.core.registry import get_mapper, mapper_names
from repro.sim.pe import PEModel, pe_model_by_name, pe_model_names
from repro.sparse.suite import REPRESENTATIVE, get_suite_matrix, suite_names

if TYPE_CHECKING:
    from repro.hypergraph.partitioner import PartitionerOptions
    from repro.sim.machine import AzulMachine

#: Cache namespaces (subdirectories of the cache root).
PLACEMENT_NAMESPACE = "placements"
SIMULATION_NAMESPACE = "simulations"
PROGRAM_NAMESPACE = "programs"

#: Logical schema of placement / simulation cache entries.  ``v1``
#: keyed the in-memory simulation cache on the raw ``AzulConfig``
#: object and hashed keys with an unversioned layout; ``v2`` keys both
#: tiers on :meth:`AzulConfig.cache_key` so stale entries cannot alias.
#: Simulation ``v3`` admits parametric :class:`~repro.sim.PEModel`
#: instances (keyed on their full parameter tuple, so a custom model
#: can never alias a registered name) for the ablation sweeps served
#: by :meth:`ExperimentSession.simulate_many`.  Placement ``v3``: the
#: vectorized multilevel partitioner (per-branch seeded recursion,
#: sort-based matching, strategy-based FM) produces different —
#: equal-quality — assignments than the ``v2`` per-vertex
#: implementation, so ``v2`` entries must never be reused.  Simulation
#: ``v4``: :class:`~repro.sim.KernelResult` gained ``n_tiles`` (pre-v4
#: pickles lack the field) and the cache key now includes the
#: ``trace`` flag, so results carrying per-op issue logs never alias
#: untraced ones.  Simulation ``v5``: the result types moved to
#: :mod:`repro.sim.stats`.  A pickle names its class's module, so a
#: ``v4`` entry would import the engine again to load.
PLACEMENT_SCHEMA = "v3"
SIMULATION_SCHEMA = "v5"

#: Compiled-program cache entries hold the three
#: :class:`~repro.dataflow.ir.CompiledKernel` objects of one PCG
#: iteration, content-addressed on the matrix/factor arrays, the
#: placement arrays, the NoC geometry, and the multicast mode — *not*
#: on timing knobs (PE model, SRAM latencies, frequency), so sweep
#: points that differ only in simulator configuration compile once and
#: share the entry.
PROGRAM_SCHEMA = "v1"

#: Partitioner presets accepted by :func:`mapper_options`.
PRESETS = ("speed", "quality", "default")


def default_experiment_config() -> AzulConfig:
    """The scaled-down default machine: 8x8 tiles (see DESIGN.md)."""
    return AzulConfig(mesh_rows=8, mesh_cols=8)


def default_matrices() -> list:
    """The representative six-matrix subset used by most experiments."""
    return list(REPRESENTATIVE)


def full_suite_matrices() -> list:
    """All twenty small-section matrices (paper's main evaluation set)."""
    return suite_names("small")


def mapper_options(preset: str) -> PartitionerOptions:
    """Partitioner preset used for Azul mappings in experiments."""
    from repro.hypergraph.partitioner import PartitionerOptions

    if preset == "speed":
        return PartitionerOptions.speed(seed=0)
    if preset == "quality":
        return PartitionerOptions.quality(seed=0)
    return PartitionerOptions(seed=0)


@dataclass(frozen=True)
class PreparedMatrix:
    """A suite matrix after the paper's standard preprocessing."""

    name: str
    scale: int
    matrix: object  # colored+permuted CSRMatrix
    lower: object   # IC(0) factor of the permuted matrix
    b: np.ndarray


# ----------------------------------------------------------------------
# Validation helpers
# ----------------------------------------------------------------------
def _validate_choice(kind: str, name, choices) -> None:
    choices = sorted(choices)
    if name in choices:
        return
    hint = ""
    if isinstance(name, str):
        close = difflib.get_close_matches(name, choices, n=1)
        if close:
            hint = f"; did you mean {close[0]!r}?"
    raise ValueError(
        f"unknown {kind} {name!r}: valid choices are "
        f"{', '.join(repr(c) for c in choices)}{hint}"
    )


def _pe_key_part(pe):
    """Canonical cache-key component for a PE given by name or model."""
    if isinstance(pe, PEModel):
        return (
            "pe", pe.name, int(pe.issue_cycles), bool(pe.multithreaded),
            int(pe.thread_contexts),
        )
    return pe


# ----------------------------------------------------------------------
# Compiled-program cache
# ----------------------------------------------------------------------
def program_cache_key(cache: ArtifactCache, config: AzulConfig,
                      matrix, lower, placement,
                      multicast: str = "tree") -> str:
    """Content-addressed key of one compiled PCG iteration program.

    The key covers everything program *construction* reads — the CSR
    arrays of A and L, the three placement arrays, the NoC geometry
    (topology + mesh dimensions), and the multicast mode — and nothing
    the timing layers read, so PE/SRAM/frequency sweeps alias to the
    same compiled kernels.
    """
    return cache.key(
        "program",
        matrix.indptr, matrix.indices, matrix.data,
        lower.indptr, lower.indices, lower.data,
        placement.a_tile, placement.l_tile, placement.vec_tile,
        config.topology, config.mesh_rows, config.mesh_cols,
        multicast, PROGRAM_SCHEMA,
    )


def compile_pcg_program(machine: AzulMachine, matrix, lower, placement,
                        *, multicast: str = "tree",
                        cache: Optional[ArtifactCache] = None,
                        use_cache: bool = True, label: str = ""):
    """Compile — or fetch from the ``programs`` cache — one iteration.

    The cache entry stores only the three
    :class:`~repro.dataflow.ir.CompiledKernel` objects; the analytic
    :class:`~repro.dataflow.vector_ops.VectorPhaseModel` is rebuilt
    from the live machine config on every hit (it is cheap and *does*
    depend on timing knobs).  Instrumented through :mod:`repro.obs`:
    ``compile.requests`` / ``compile.cache_hits`` / ``compile.builds``
    counters and a ``compile.build`` timer around actual lowering.
    """
    from repro.dataflow.program import PCGIterationProgram
    from repro.dataflow.vector_ops import VectorPhaseModel
    from repro.errors import SimulationError

    if placement.n_tiles != machine.config.num_tiles:
        raise SimulationError(
            f"placement targets {placement.n_tiles} tiles but the "
            f"machine has {machine.config.num_tiles}"
        )
    obs.counter("compile.requests")
    key = None
    if use_cache and cache is not None:
        key = program_cache_key(cache, machine.config, matrix, lower,
                                placement, multicast)
        kernels = cache.get(PROGRAM_NAMESPACE, key, PICKLE)
        if kernels is not MISS:
            obs.counter("compile.cache_hits")
            spmv, forward, backward = kernels
            vector_phase = VectorPhaseModel(
                vec_tile=placement.vec_tile, torus=machine.torus,
                config=machine.config,
            )
            return PCGIterationProgram(
                spmv=spmv, sptrsv_lower=forward, sptrsv_upper=backward,
                vector_phase=vector_phase, n=int(matrix.n_rows),
            )
    obs.counter("compile.builds")
    with obs.timer("compile.build", matrix=label, multicast=multicast):
        program = machine.compile(matrix, lower, placement,
                                  multicast=multicast)
    if key is not None:
        cache.put(
            PROGRAM_NAMESPACE, key,
            (program.spmv, program.sptrsv_lower, program.sptrsv_upper),
            PICKLE,
        )
    return program


# ----------------------------------------------------------------------
# Shared preparation memo.  PreparedMatrix is a pure function of
# (name, scale) — independent of machine config — so one process-wide
# memo serves every session and preserves the historical identity
# guarantee (prepare(x) is prepare(x)).
# ----------------------------------------------------------------------
_PREPARED: dict = {}
_PREPARED_LOCK = threading.Lock()


def clear_prepared_matrices() -> None:
    """Drop the process-wide prepared-matrix memo (tests/memory)."""
    with _PREPARED_LOCK:
        _PREPARED.clear()


# ----------------------------------------------------------------------
# The session facade
# ----------------------------------------------------------------------
class ExperimentSession:
    """One experiment context: machine config + scale + preset + caches.

    Parameters
    ----------
    config:
        Machine configuration (default: the 8x8 experiment machine).
    scale:
        Matrix scale factor passed to the suite generators.
    preset:
        Partitioner preset for Azul mappings: ``"speed"``,
        ``"quality"``, or ``"default"``.
    cache:
        An :class:`repro.cache.ArtifactCache`; by default the
        process-wide cache for the current ``REPRO_CACHE_*``
        environment, so sessions share disk *and* memory tiers.
    use_cache:
        ``False`` bypasses the artifact cache entirely (prepared
        matrices are still memoized in process).
    """

    def __init__(self, config: Optional[AzulConfig] = None, *,
                 scale: int = 1, preset: str = "speed",
                 cache: Optional[ArtifactCache] = None,
                 use_cache: bool = True):
        config = config if config is not None else default_experiment_config()
        if not isinstance(config, AzulConfig):
            raise TypeError(
                f"config must be an AzulConfig, got {type(config).__name__}"
            )
        _validate_choice("preset", preset, PRESETS)
        if scale < 1:
            raise ValueError("scale must be >= 1")
        self.config = config
        self.scale = int(scale)
        self.preset = preset
        self.use_cache = bool(use_cache)
        self.cache = cache if cache is not None else ArtifactCache.default()
        #: Simulation keys whose issue traces were already bridged into
        #: the Chrome-trace export (cache hits must not duplicate them).
        self._bridged_traces: set = set()

    # -- preparation ---------------------------------------------------
    def prepare(self, name: str,
                scale: Optional[int] = None) -> PreparedMatrix:
        """Build, color+permute, and factor one suite matrix (memoized).

        Repeated calls return the identical object.
        """
        _validate_choice("matrix", name, suite_names("all"))
        scale = self.scale if scale is None else int(scale)
        key = (name, scale)
        with _PREPARED_LOCK:
            prepared = _PREPARED.get(key)
        if prepared is not None:
            return prepared
        from repro.graph.permute import color_and_permute
        from repro.precond.ic0 import ic0

        with obs.timer("pipeline.prepare", matrix=name, scale=scale):
            matrix, b = get_suite_matrix(name, scale=scale)
            permuted, permuted_b, _ = color_and_permute(matrix, b)
            prepared = PreparedMatrix(
                name=name, scale=scale, matrix=permuted,
                lower=ic0(permuted), b=permuted_b,
            )
        with _PREPARED_LOCK:
            return _PREPARED.setdefault(key, prepared)

    # -- placement -----------------------------------------------------
    def placement(self, name: str, mapper: str,
                  n_tiles: Optional[int] = None, *,
                  scale: Optional[int] = None,
                  preset: Optional[str] = None,
                  use_cache: Optional[bool] = None,
                  jobs: Optional[int] = None) -> Placement:
        """Map one prepared matrix with one strategy, with caching.

        Azul mappings additionally record their mapping wall-clock time
        in ``placement_seconds`` (used by the Sec. VI-D cost
        comparison).  ``jobs`` bounds the partitioner's worker pool for
        independent sub-bisections; placements are bit-identical
        regardless, so ``jobs`` is *not* part of the cache key.
        """
        _validate_choice("mapper", mapper, mapper_names())
        n_tiles = self.config.num_tiles if n_tiles is None else int(n_tiles)
        scale = self.scale if scale is None else int(scale)
        preset = self.preset if preset is None else preset
        _validate_choice("preset", preset, PRESETS)
        use_cache = self.use_cache if use_cache is None else bool(use_cache)

        key = self.cache.key(
            "placement", name, scale, mapper, n_tiles, preset,
            PLACEMENT_SCHEMA,
        )
        if use_cache:
            arrays = self.cache.get(PLACEMENT_NAMESPACE, key, NPZ)
            if arrays is not MISS:
                return self._placement_from_arrays(arrays, n_tiles)

        prepared = self.prepare(name, scale)
        mapper_fn = get_mapper(mapper)
        start = time.perf_counter()
        with obs.timer("pipeline.place", matrix=name, mapper=mapper,
                       n_tiles=n_tiles):
            if mapper == "azul":
                placement = mapper_fn(
                    prepared.matrix, prepared.lower, n_tiles,
                    options=mapper_options(preset), jobs=jobs,
                )
            else:
                placement = mapper_fn(prepared.matrix, prepared.lower,
                                      n_tiles)
        seconds = time.perf_counter() - start
        placement.placement_seconds = seconds
        if use_cache:
            self.cache.put(
                PLACEMENT_NAMESPACE, key,
                {
                    "a_tile": placement.a_tile,
                    "l_tile": placement.l_tile,
                    "vec_tile": placement.vec_tile,
                    "mapper": placement.mapper,
                    "seconds": seconds,
                },
                NPZ,
            )
        return placement

    @staticmethod
    def _placement_from_arrays(arrays: dict, n_tiles: int) -> Placement:
        placement = Placement(
            n_tiles=n_tiles,
            a_tile=np.asarray(arrays["a_tile"]),
            l_tile=np.asarray(arrays["l_tile"]),
            vec_tile=np.asarray(arrays["vec_tile"]),
            mapper=str(arrays["mapper"]),
        )
        placement.placement_seconds = float(arrays["seconds"])
        return placement

    # -- compilation ---------------------------------------------------
    def compiled_program(self, name: str, mapper: str = "azul", *,
                         scale: Optional[int] = None,
                         preset: Optional[str] = None,
                         multicast: str = "tree",
                         use_cache: Optional[bool] = None):
        """The compiled PCG iteration program for one mapped matrix.

        Programs are content-addressed in the ``programs`` cache
        namespace (see :func:`program_cache_key`): two sessions — or
        two sweep points — whose matrix, placement, geometry, and
        multicast mode agree share one compilation, whatever their
        timing configuration.
        """
        _validate_choice("mapper", mapper, mapper_names())
        scale = self.scale if scale is None else int(scale)
        preset = self.preset if preset is None else preset
        _validate_choice("preset", preset, PRESETS)
        use_cache = self.use_cache if use_cache is None else bool(use_cache)
        prepared = self.prepare(name, scale)
        placement = self.placement(
            name, mapper, self.config.num_tiles,
            scale=scale, preset=preset, use_cache=use_cache,
        )
        from repro.sim.machine import AzulMachine

        machine = AzulMachine(self.config)
        return compile_pcg_program(
            machine, prepared.matrix, prepared.lower, placement,
            multicast=multicast, cache=self.cache, use_cache=use_cache,
            label=name,
        )

    # -- simulation ----------------------------------------------------
    def simulation_key(self, name: str, mapper: str = "azul",
                       pe="azul", *, scale: Optional[int] = None,
                       preset: Optional[str] = None,
                       check: bool = True,
                       config: Optional[AzulConfig] = None,
                       trace: bool = False) -> str:
        """The artifact-cache key one :meth:`simulate` call resolves to.

        Exposed so sweep executors (:mod:`repro.parallel`) can
        short-circuit cache hits and deduplicate in-flight points
        before spawning any worker.  ``trace`` is part of the key:
        traced results carry per-op issue logs and must never alias
        untraced entries.
        """
        scale = self.scale if scale is None else int(scale)
        preset = self.preset if preset is None else preset
        config = self.config if config is None else config
        return self.cache.key(
            "simulate", name, scale, mapper, _pe_key_part(pe), preset,
            bool(check), bool(trace), config.cache_key(), SIMULATION_SCHEMA,
        )

    def simulate(self, name: str, mapper: str = "azul", pe="azul",
                 *, scale: Optional[int] = None, preset: Optional[str] = None,
                 check: bool = True, use_cache: Optional[bool] = None,
                 trace: Optional[bool] = None):
        """Simulate one steady-state PCG iteration (cached).

        Results live in the in-memory tier (identity-preserving within
        a process) backed by a persistent on-disk tier keyed on
        :meth:`AzulConfig.cache_key`, so repeated sweeps across
        processes skip re-simulation entirely.  ``pe`` accepts a
        registered model name or a :class:`~repro.sim.PEModel`
        instance (ablation sweeps construct synthetic PEs).

        ``trace`` records per-op issue logs in the kernel results and
        bridges them into the Chrome-trace export (see
        :mod:`repro.obs`); it defaults to
        :func:`repro.obs.tracing_enabled`.
        """
        _validate_choice("mapper", mapper, mapper_names())
        if not isinstance(pe, PEModel):
            _validate_choice("pe", pe, pe_model_names())
        scale = self.scale if scale is None else int(scale)
        preset = self.preset if preset is None else preset
        _validate_choice("preset", preset, PRESETS)
        use_cache = self.use_cache if use_cache is None else bool(use_cache)
        trace = obs.tracing_enabled() if trace is None else bool(trace)

        key = self.simulation_key(
            name, mapper, pe, scale=scale, preset=preset, check=check,
            trace=trace,
        )
        if use_cache:
            cached = self.cache.get(SIMULATION_NAMESPACE, key, PICKLE)
            if cached is not MISS:
                if trace:
                    self._bridge_trace(key, f"{name}/{mapper}", cached)
                return cached

        from repro.sim.machine import AzulMachine, verify_iteration

        prepared = self.prepare(name, scale)
        placement = self.placement(
            name, mapper, self.config.num_tiles,
            scale=scale, preset=preset, use_cache=use_cache,
        )
        model = pe if isinstance(pe, PEModel) else pe_model_by_name(pe)
        machine = AzulMachine(self.config, model)
        program = compile_pcg_program(
            machine, prepared.matrix, prepared.lower, placement,
            cache=self.cache, use_cache=use_cache, label=name,
        )
        with obs.timer("pipeline.simulate", matrix=name, mapper=mapper,
                       pe=str(getattr(pe, "name", pe)), trace=trace):
            result = machine.simulate_iteration(
                program, p=prepared.b, r=prepared.b,
                record_issue_trace=trace,
            )
        if check:
            verify_iteration(result, prepared.matrix, prepared.lower,
                             prepared.b)
        if use_cache:
            self.cache.put(SIMULATION_NAMESPACE, key, result, PICKLE)
        if trace:
            self._bridge_trace(key, f"{name}/{mapper}", result)
        return result

    def simulate_many(self, points, jobs: Optional[int] = None, *,
                      use_cache: Optional[bool] = None,
                      stats: Optional[dict] = None) -> list:
        """Simulate many sweep points, fanned out across processes.

        A drop-in replacement for a serial loop of :meth:`simulate`
        calls: results come back in point order and are identical to a
        ``jobs=1`` run.  Cache hits short-circuit before any worker is
        spawned, duplicate points are computed once, and worker
        failures degrade gracefully to in-process computation.  See
        :func:`repro.parallel.simulate_many`.
        """
        from repro.parallel import simulate_many as _simulate_many

        return _simulate_many(
            self, points, jobs, use_cache=use_cache, stats=stats,
        )

    def simulate_placements(self, name: Optional[str] = None,
                            placements=(), *,
                            pe="azul", check: bool = False,
                            multicast: str = "tree",
                            scale: Optional[int] = None,
                            jobs: Optional[int] = None,
                            use_cache: Optional[bool] = None,
                            stats: Optional[dict] = None) -> list:
        """Simulate explicit placements (usually one matrix).

        Placement-content-keyed variant of :meth:`simulate_many` for
        the ablations that sweep the mapper itself (seeds, partitioner
        options, multicast modes).  Entries may be ``Placement``
        objects or per-point override dicts.  See
        :func:`repro.parallel.simulate_placements`.
        """
        from repro.parallel import simulate_placements as _simulate_placements

        return _simulate_placements(
            self, name, placements, pe=pe, check=check,
            multicast=multicast, scale=scale, jobs=jobs,
            use_cache=use_cache, stats=stats,
        )

    # -- observability -------------------------------------------------
    def cache_stats(self):
        """Live counters of this session's artifact cache."""
        return self.cache.stats

    def _bridge_trace(self, key: str, label: str, result) -> None:
        """Bridge one simulation's issue logs into the trace export.

        Each kernel result becomes its own Chrome-trace process
        (timestamps are machine cycles, not wall-clock, so they must
        not share the pipeline timeline).  Keyed on the simulation
        cache key so cache hits and sweep duplicates bridge once.
        """
        if not obs.tracing_enabled() or key in self._bridged_traces:
            return
        from repro.sim.trace import chrome_trace_events

        kernel_results = getattr(result, "kernel_results", None)
        if kernel_results is None:
            kernel_results = [result]
        events = []
        for kernel in kernel_results:
            if not getattr(kernel, "issue_trace", None):
                continue
            pid = obs.allocate_pid(f"{label}:{kernel.name} (cycles)")
            events.extend(chrome_trace_events(kernel, pid))
        if events:
            obs.add_trace_events(events)
            self._bridged_traces.add(key)

    def _overrides_extra(self) -> dict:
        """Environment overrides + cache stats block for exports."""
        from repro.config import overrides

        return {
            "overrides": overrides(),
            "cache": self.cache.stats.as_dict(),
        }

    def export_metrics(self, path) -> str:
        """Write the metrics-registry snapshot (plus effective env
        overrides and this session's cache counters) as JSON."""
        return obs.write_metrics(path, extra=self._overrides_extra())

    def export_trace(self, path) -> str:
        """Write the collected spans + bridged simulator issue events
        as a Chrome-trace JSON (loadable at ui.perfetto.dev)."""
        return obs.write_chrome_trace(path, metadata=self._overrides_extra())

    def __repr__(self):
        return (
            f"ExperimentSession(config={self.config.mesh_rows}x"
            f"{self.config.mesh_cols}, scale={self.scale}, "
            f"preset={self.preset!r}, cache={str(self.cache.root)!r})"
        )
