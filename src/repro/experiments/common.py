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
per-op issue logs; the runner's ``--trace`` / ``--metrics`` write the
artifacts.
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
from repro.parallel import PlacementSpec, SimPoint, resolve
from repro.sim.pe import PEModel, pe_model_by_name, pe_model_names
from repro.sparse.suite import REPRESENTATIVE, get_suite_matrix, suite_names

if TYPE_CHECKING:
    from repro.hypergraph.partitioner import PartitionerOptions

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
#: by :func:`repro.parallel.simulate_many`.  Placement ``v3``: the
#: vectorized multilevel partitioner (per-branch seeded recursion,
#: sort-based matching, strategy-based FM) produces different —
#: equal-quality — assignments than the ``v2`` per-vertex
#: implementation, so ``v2`` entries must never be reused.  Simulation
#: ``v4``: :class:`~repro.sim.KernelResult` gained ``n_tiles`` (pre-v4
#: pickles lack the field) and the cache key now includes the
#: ``trace`` flag, so results carrying per-op issue logs never alias
#: untraced ones.  Simulation ``v5``: the result types moved to
#: :mod:`repro.sim.stats`.  A pickle names its class's module, so a
#: ``v4`` entry would import the engine again to load.  Placement
#: ``v4``: the key is the resolved :class:`~repro.parallel.PlacementSpec`
#: (adding the seed, ``q`` and row weight); simulation ``v6``: the key
#: is built on the placement's key and adds the multicast mode, so a
#: placement change invalidates every simulation of it.  Simulation
#: ``v7``: suite right-hand sides are seeded from a digest of the
#: matrix name instead of the per-process salted ``hash()``, so
#: results computed from an old ``b`` must miss.  Simulation ``v8``:
#: per-link counts are sorted link-id/count arrays instead of a dict,
#: every simulation is verified (the key loses ``check``), and a PE is
#: keyed by its timing parameters instead of its name.
PLACEMENT_SCHEMA = "v4"
SIMULATION_SCHEMA = "v8"

#: Compiled-program cache entries hold the three
#: :class:`~repro.dataflow.ir.CompiledKernel` objects of one PCG
#: iteration, content-addressed on the matrix/factor arrays, the
#: placement arrays, the NoC geometry, and the multicast mode — *not*
#: on timing knobs (PE model, SRAM latencies, frequency), so sweep
#: points that differ only in simulator configuration compile once and
#: share the entry.  ``v2``: the local FMAC counters hold one entry per
#: (tile, row) pair instead of a dense tiles × rows matrix.
PROGRAM_SCHEMA = "v2"

#: Partitioner presets accepted by :func:`mapper_options`.
PRESETS = ("speed", "quality", "default")


def default_experiment_config() -> AzulConfig:
    """The scaled-down default machine: 8x8 tiles (see DESIGN.md)."""
    return AzulConfig(mesh_rows=8, mesh_cols=8)


def default_matrices() -> list:
    """The representative six-matrix subset used by most experiments."""
    return list(REPRESENTATIVE)


def mapper_options(preset: str, seed: int) -> PartitionerOptions:
    """Partitioner preset used for Azul mappings in experiments."""
    from repro.hypergraph.partitioner import PartitionerOptions

    if preset == "speed":
        return PartitionerOptions.speed(seed=seed)
    if preset == "quality":
        return PartitionerOptions.quality(seed=seed)
    return PartitionerOptions(seed=seed)


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
    """Canonical cache-key component for a PE given by name or model.

    A PE is keyed by the parameters the simulator reads, not by its
    name: two models with the same timing simulate the same iteration.
    """
    if not isinstance(pe, PEModel):
        _validate_choice("pe", pe, pe_model_names())
        pe = pe_model_by_name(pe)
    return ("pe", int(pe.issue_cycles), bool(pe.multithreaded),
            int(pe.thread_contexts))


# ----------------------------------------------------------------------
# Cache keys of resolved points (see repro.parallel.resolve)
# ----------------------------------------------------------------------
def placement_key(spec: PlacementSpec) -> str:
    """The artifact-cache key of a resolved placement."""
    return ArtifactCache.key("placement", spec, PLACEMENT_SCHEMA)


def simulation_key(point: SimPoint) -> str:
    """The artifact-cache key of a resolved simulation point.

    Built on its placement's key, so whatever changes a placement also
    changes every simulation of it.  ``trace`` is part of the key:
    traced results carry per-op issue logs and must never alias
    untraced entries.  Every simulation is verified, so the key has no
    verification flag.
    """
    return ArtifactCache.key(
        "simulate", placement_key(point.placement), _pe_key_part(point.pe),
        point.trace, point.multicast, point.config, SIMULATION_SCHEMA,
    )


def cache_slot(point) -> tuple:
    """The ``(namespace, serializer)`` a resolved point is cached under."""
    if isinstance(point, PlacementSpec):
        return PLACEMENT_NAMESPACE, NPZ
    return SIMULATION_NAMESPACE, PICKLE


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


def compile_pcg_program(config: AzulConfig, matrix, lower, placement,
                        *, multicast: str = "tree",
                        cache: Optional[ArtifactCache] = None,
                        label: str = ""):
    """Compile — or fetch from the ``programs`` cache — one iteration.

    The program is compiled over ``config``'s NoC geometry.  A program
    is its three :class:`~repro.dataflow.ir.CompiledKernel` objects,
    which is what the cache entry stores, so a hit is the program.
    Instrumented through :mod:`repro.obs`: ``compile.requests`` /
    ``compile.cache_hits`` / ``compile.builds`` counters and a
    ``compile.build`` timer around actual lowering.  Without a
    ``cache`` (or with a disabled one) every request builds.
    """
    from repro.comm import make_geometry
    from repro.dataflow.program import PCGIterationProgram, build_pcg_program

    obs.counter("compile.requests")
    key = None
    if cache is not None:
        key = program_cache_key(cache, config, matrix, lower, placement,
                                multicast)
        kernels = cache.get(PROGRAM_NAMESPACE, key, PICKLE)
        if kernels is not MISS:
            obs.counter("compile.cache_hits")
            return PCGIterationProgram(*kernels)
    obs.counter("compile.builds")
    with obs.timer("compile.build", matrix=label, multicast=multicast):
        program = build_pcg_program(matrix, lower, placement,
                                    make_geometry(config),
                                    multicast=multicast)
    if key is not None:
        cache.put(PROGRAM_NAMESPACE, key, program.kernels, PICKLE)
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
        environment, so sessions share disk *and* memory tiers.  A
        disabled cache (``ArtifactCache(enabled=False)``, or
        ``REPRO_CACHE_DISABLE``) computes everything afresh; prepared
        matrices are still memoized in process.
    """

    def __init__(self, config: Optional[AzulConfig] = None, *,
                 scale: int = 1, preset: str = "speed",
                 cache: Optional[ArtifactCache] = None):
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
                  seed: Optional[int] = None,
                  q: Optional[int] = None,
                  row_weight: Optional[float] = None) -> Placement:
        """Map one prepared matrix with one strategy, with caching.

        The arguments are the fields of a
        :class:`~repro.parallel.PlacementSpec`; ``seed``, ``q`` and
        ``row_weight`` shape the ``azul`` mapper only.  Every placement
        records its mapping wall-clock time in ``placement_seconds``
        (the Sec. VI-D cost comparison); a cached placement carries the
        time recorded when it was computed.
        """
        _validate_choice("mapper", mapper, mapper_names())
        if mapper != "azul" and (seed, q, row_weight) != (None,) * 3:
            raise ValueError(
                f"mapper {mapper!r} takes no seed, q or row_weight"
            )
        spec, key = resolve(self, PlacementSpec(
            name, mapper, n_tiles, scale, preset, seed, q, row_weight,
        ))
        _validate_choice("preset", spec.preset, PRESETS)
        cached = self.cached(spec, key)
        return self._place(spec, key) if cached is MISS else cached

    def _place(self, spec: PlacementSpec, key: str) -> Placement:
        prepared = self.prepare(spec.name, spec.scale)
        mapper_fn = get_mapper(spec.mapper)
        start = time.perf_counter()
        with obs.timer("pipeline.place", matrix=spec.name,
                       mapper=spec.mapper, n_tiles=spec.n_tiles):
            if spec.mapper == "azul":
                assert spec.preset is not None and spec.seed is not None
                placement = mapper_fn(
                    prepared.matrix, prepared.lower, spec.n_tiles,
                    q=spec.q, row_weight=spec.row_weight,
                    options=mapper_options(spec.preset, spec.seed),
                )
            else:
                placement = mapper_fn(prepared.matrix, prepared.lower,
                                      spec.n_tiles)
        seconds = time.perf_counter() - start
        placement.placement_seconds = seconds
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

    def cached(self, point, key: str):
        """The cached result of a resolved point, or :data:`MISS`."""
        namespace, serializer = cache_slot(point)
        value = self.cache.get(namespace, key, serializer)
        if value is MISS or not isinstance(point, PlacementSpec):
            return value
        return self._placement_from_arrays(value, point.n_tiles)

    def compute(self, point, key: str):
        """Compute and cache a resolved point the cache does not hold.

        What :meth:`placement` and :meth:`simulate` do when their lookup
        misses; the sweep (:func:`repro.parallel.simulate_many`) calls
        it for the points its own lookup missed, so each computed
        point's key is read once.  The point is computed as resolved,
        whatever this session's defaults.
        """
        _validate_choice("mapper", point.mapper, mapper_names())
        _validate_choice("preset", point.preset, PRESETS)
        if isinstance(point, PlacementSpec):
            return self._place(point, key)
        return self._simulate(point, key)

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
    def compiled_program(self, name: str, placement: Placement, *,
                         scale: Optional[int] = None,
                         multicast: str = "tree"):
        """The compiled PCG iteration program of one placement of ``name``.

        ``placement`` maps the matrix :meth:`prepare` returns for
        ``name`` at ``scale`` (default: the session's).  Programs are
        content-addressed in the ``programs`` cache namespace (see
        :func:`program_cache_key`): every simulation and traffic
        analysis whose matrix, placement, geometry, and multicast mode
        agree shares one compilation, whatever its timing
        configuration.
        """
        prepared = self.prepare(name, scale)
        return compile_pcg_program(
            self.config, prepared.matrix, prepared.lower, placement,
            multicast=multicast, cache=self.cache, label=name,
        )

    def traffic(self, name: str, placement: Placement):
        """Static NoC traffic of one placement of ``name``.

        Counted over the program :meth:`compiled_program` returns, so
        the analysis shares the simulations' cached compilation.
        """
        from repro.core.traffic import count_traffic

        program = self.compiled_program(name, placement)
        return count_traffic(program.kernels, placement.mapper,
                             placement.n_tiles)

    # -- simulation ----------------------------------------------------
    def simulate(self, name: str, mapper: str = "azul", pe="azul",
                 *, scale: Optional[int] = None, preset: Optional[str] = None,
                 trace: Optional[bool] = None, seed: Optional[int] = None,
                 row_weight: Optional[float] = None,
                 multicast: str = "tree"):
        """Simulate one steady-state PCG iteration (cached).

        Results live in the in-memory tier (identity-preserving within
        a process) backed by a persistent on-disk tier, so repeated
        sweeps across processes skip re-simulation entirely.  The
        arguments are the fields of a :class:`~repro.parallel.SimPoint`
        on this session's config: ``pe`` accepts a registered model
        name or a :class:`~repro.sim.PEModel` instance (ablation sweeps
        construct synthetic PEs), ``seed``/``row_weight`` select the
        placement as in :meth:`placement` (with the default ``q``), and
        ``multicast`` is ``"tree"`` or ``"unicast"``.  Every computed
        result is verified against the reference kernels
        (:func:`~repro.sim.machine.verify_iteration`) before it is
        cached.

        ``trace`` records per-op issue logs in the kernel results and
        bridges them into the Chrome-trace export (see
        :mod:`repro.obs`); it defaults to
        :func:`repro.obs.tracing_enabled`.
        """
        _validate_choice("mapper", mapper, mapper_names())
        trace = obs.tracing_enabled() if trace is None else bool(trace)
        point, key = resolve(self, SimPoint(
            name, mapper, pe, scale, preset, trace=trace, seed=seed,
            row_weight=row_weight, multicast=multicast,
        ))
        _validate_choice("preset", point.preset, PRESETS)
        cached = self.cached(point, key)
        if cached is MISS:
            return self._simulate(point, key)
        if trace:
            self._bridge_trace(key, f"{name}/{mapper}", cached)
        return cached

    def _simulate(self, point: SimPoint, key: str):
        from repro.sim.machine import AzulMachine, verify_iteration

        name, mapper, pe, config = (point.name, point.mapper, point.pe,
                                    point.config)
        assert config is not None  # a resolved point carries its machine
        prepared = self.prepare(name, point.scale)
        placement = self.placement(**vars(point.placement))
        program = compile_pcg_program(
            config, prepared.matrix, prepared.lower, placement,
            multicast=point.multicast, cache=self.cache, label=name,
        )
        model = pe if isinstance(pe, PEModel) else pe_model_by_name(pe)
        machine = AzulMachine(config, model)
        with obs.timer("pipeline.simulate", matrix=name, mapper=mapper,
                       pe=str(getattr(pe, "name", pe)), trace=point.trace):
            result = machine.simulate_iteration(
                program, p=prepared.b, r=prepared.b,
                record_issue_trace=point.trace,
            )
        verify_iteration(result, prepared.matrix, prepared.lower,
                         prepared.b)
        self.cache.put(SIMULATION_NAMESPACE, key, result, PICKLE)
        if point.trace:
            self._bridge_trace(key, f"{name}/{mapper}", result)
        return result

    # -- observability -------------------------------------------------
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

    def __repr__(self):
        return (
            f"ExperimentSession(config={self.config.mesh_rows}x"
            f"{self.config.mesh_cols}, scale={self.scale}, "
            f"preset={self.preset!r}, cache={str(self.cache.root)!r})"
        )
