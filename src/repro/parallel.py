"""Parallel sweep execution across processes.

Experiment sweeps are embarrassingly parallel across their points: each
``(matrix, mapper, pe, scale, preset, config)`` combination is an
independent simulation.  :func:`simulate_many` fans a list of
:class:`SimPoint` out over a :class:`~concurrent.futures.ProcessPoolExecutor`
while staying a drop-in replacement for a serial loop of
:meth:`ExperimentSession.simulate` calls:

* **Cache short-circuit** — every point is looked up in the shared
  on-disk artifact cache *before* any worker is spawned; a fully-cached
  sweep never pays process start-up.
* **In-flight deduplication** — points resolving to the same cache key
  are computed once and fanned back to every requesting index.
* **Shared artifact cache** — workers inherit ``REPRO_CACHE_*`` from
  the environment, so their results land in the same store the parent
  (and the next run) reads.
* **Graceful degradation** — a crashed worker, a broken pool, or an
  unpicklable result demotes only the affected points to an in-process
  serial computation; ``simulate_many`` never fails a sweep because of
  parallel machinery.

Results are returned in point order and are identical to what a serial
``jobs=1`` run produces (simulation is deterministic; see
``tests/test_parallel.py``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import repro.obs as obs
from repro.cache import MISS, PICKLE
from repro.config import ENV_JOBS, AzulConfig
from repro.sim.pe import PEModel

__all__ = ["SimPoint", "simulate_many", "simulate_keyed",
           "simulate_placements", "default_jobs", "ENV_JOBS"]

#: Sentinel marking a worker failure (distinct from any result).
_FAILED = object()


@dataclass(frozen=True)
class SimPoint:
    """One sweep point for :func:`simulate_many`.

    ``scale``/``preset``/``config`` default to the owning session's
    values when ``None``.  ``pe`` accepts either a registered model
    name or a :class:`~repro.sim.pe.PEModel` instance (ablations sweep
    synthetic PEs).
    """

    name: str
    mapper: str = "azul"
    pe: Union[str, PEModel] = "azul"
    scale: Optional[int] = None
    preset: Optional[str] = None
    check: bool = True
    config: Optional[AzulConfig] = None
    #: Record per-op issue traces; ``None`` follows the parent's
    #: :func:`repro.obs.tracing_enabled` (workers never inherit obs
    #: enablement, so the resolved flag travels in the spec).
    trace: Optional[bool] = None


def default_jobs() -> int:
    """Worker count when unspecified: ``REPRO_JOBS`` or a capped cpu count.

    A set ``REPRO_JOBS`` must be an integer; values below 1 mean 1.
    """
    env = os.environ.get(ENV_JOBS, "")
    if not env:
        return max(1, min(8, os.cpu_count() or 1))
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(
            f"{ENV_JOBS} must be an integer worker count, got {env!r}"
        ) from None


def _coerce(point) -> SimPoint:
    if isinstance(point, SimPoint):
        return point
    if isinstance(point, str):
        return SimPoint(name=point)
    if isinstance(point, dict):
        return SimPoint(**point)
    raise TypeError(
        f"sweep point must be a SimPoint, matrix name, or dict; "
        f"got {type(point).__name__}"
    )


def _resolve(session, point: SimPoint) -> dict:
    """Concretize a point against its session (pure data, picklable)."""
    return {
        "name": point.name,
        "mapper": point.mapper,
        "pe": point.pe,
        "scale": session.scale if point.scale is None else int(point.scale),
        "preset": session.preset if point.preset is None else point.preset,
        "check": bool(point.check),
        "config": session.config if point.config is None else point.config,
        "use_cache": session.use_cache,
        "trace": (obs.tracing_enabled() if point.trace is None
                  else bool(point.trace)),
    }


def _compute_in_worker(spec: dict):
    """Top-level worker entry point (must be picklable by reference).

    Builds a fresh session in the worker process; the artifact cache is
    shared with the parent through the inherited ``REPRO_CACHE_*``
    environment, so the computed result is persisted for everyone.
    """
    from repro.experiments.common import ExperimentSession

    session = ExperimentSession(
        spec["config"], scale=spec["scale"], preset=spec["preset"],
        use_cache=spec["use_cache"],
    )
    return session.simulate(
        spec["name"], spec["mapper"], spec["pe"], check=spec["check"],
        trace=spec["trace"],
    )


def _compute_serial(session, spec: dict, use_cache: bool):
    """In-process computation (serial path and worker-failure fallback)."""
    from repro.experiments.common import ExperimentSession

    if spec["config"] == session.config:
        sub = session
    else:
        sub = ExperimentSession(
            spec["config"], scale=session.scale, preset=session.preset,
            cache=session.cache, use_cache=session.use_cache,
        )
    return sub.simulate(
        spec["name"], spec["mapper"], spec["pe"],
        scale=spec["scale"], preset=spec["preset"],
        check=spec["check"], use_cache=use_cache, trace=spec["trace"],
    )


def _run_pool(pending: Sequence[tuple], jobs: int, info: dict,
              worker=_compute_in_worker) -> dict:
    """Fan unique cache misses out over a process pool.

    Returns ``{key: result-or-_FAILED}``; pool-level failures leave
    keys absent, which the caller treats the same as ``_FAILED``.
    """
    from concurrent.futures import ProcessPoolExecutor

    computed: dict = {}
    try:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(pending))
        ) as pool:
            futures = [
                (key, pool.submit(worker, spec))
                for key, _, spec in pending
            ]
            for key, future in futures:
                try:
                    computed[key] = future.result()
                    info["computed_parallel"] += 1
                except Exception:
                    # Worker crash, unpicklable payload, broken pool:
                    # demote this point to the serial fallback.
                    info["worker_failures"] += 1
                    computed[key] = _FAILED
    except Exception:
        # Pool construction / teardown failure: everything not yet
        # computed falls back to serial.
        info["worker_failures"] += 1
    return computed


def simulate_many(session, points, jobs: Optional[int] = None, *,
                  use_cache: Optional[bool] = None,
                  stats: Optional[dict] = None) -> List:
    """Simulate many sweep points, fanned out across processes.

    Parameters
    ----------
    session:
        The owning :class:`~repro.experiments.common.ExperimentSession`.
    points:
        Iterable of :class:`SimPoint` (or matrix-name strings / kwargs
        dicts coerced to one).
    jobs:
        Worker processes; ``None`` consults ``REPRO_JOBS`` then a
        capped cpu count, ``1`` forces the serial path.
    use_cache:
        Override the session's cache policy for this sweep.
    stats:
        Optional dict, filled with sweep observability counters
        (``points``, ``unique``, ``cache_hits``, ``computed_parallel``,
        ``computed_serial``, ``worker_failures``, ``deduplicated``).

    Returns
    -------
    list
        Simulation results in point order — element ``i`` is exactly
        what ``session.simulate(**points[i])`` returns.
    """
    from repro.experiments.common import SIMULATION_NAMESPACE

    points = [_coerce(p) for p in points]
    use_cache = session.use_cache if use_cache is None else bool(use_cache)
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    specs = [_resolve(session, p) for p in points]
    keys = [
        session.simulation_key(
            spec["name"], spec["mapper"], spec["pe"],
            scale=spec["scale"], preset=spec["preset"],
            check=spec["check"], config=spec["config"],
            trace=spec["trace"],
        )
        for spec in specs
    ]
    with obs.span("sweep.simulate_many", points=len(points),
                  jobs=jobs) as sweep_span:
        # Deduplicate in-flight keys: one computation per unique key.
        by_key: Dict[str, List[int]] = {}
        for index, key in enumerate(keys):
            by_key.setdefault(key, []).append(index)

        results: List = [None] * len(points)
        info = {
            "points": len(points),
            "unique": len(by_key),
            "deduplicated": len(points) - len(by_key),
            "cache_hits": 0,
            "computed_parallel": 0,
            "computed_serial": 0,
            "worker_failures": 0,
        }

        # Cache short-circuit before any worker spawns.
        pending = []
        for key, indices in by_key.items():
            if use_cache:
                cached = session.cache.get(SIMULATION_NAMESPACE, key, PICKLE)
                if cached is not MISS:
                    info["cache_hits"] += 1
                    spec = specs[indices[0]]
                    if spec["trace"]:
                        session._bridge_trace(
                            key, f"{spec['name']}/{spec['mapper']}", cached,
                        )
                    for index in indices:
                        results[index] = cached
                    continue
            pending.append((key, indices, specs[indices[0]]))

        if pending:
            computed = (
                _run_pool(pending, jobs, info)
                if jobs > 1 and len(pending) > 1
                else {}
            )
            for key, indices, spec in pending:
                value = computed.get(key, _FAILED)
                if value is _FAILED:
                    value = _compute_serial(session, spec, use_cache)
                    info["computed_serial"] += 1
                elif spec["trace"]:
                    # Workers don't inherit obs enablement; issue logs
                    # travel back in the result and the parent bridges.
                    session._bridge_trace(
                        key, f"{spec['name']}/{spec['mapper']}", value,
                    )
                for index in indices:
                    results[index] = value

        sweep_span.set(**info)

    for counter_name, value in info.items():
        obs.counter(f"sweep.{counter_name}", value)

    if stats is not None:
        stats.update(info)
    return results


def simulate_keyed(session, points, jobs: Optional[int] = None, *,
                   use_cache: Optional[bool] = None,
                   stats: Optional[dict] = None) -> Dict[str, object]:
    """Simulate a ``{key: SimPoint}`` mapping; results come back keyed.

    The keyed face of :func:`simulate_many` used by the declarative
    experiment specs (:mod:`repro.experiments.spec`): point keys are
    experiment-local labels, so reducers look results up by name
    instead of fragile positional arithmetic (``sims[2 * index]``).
    Duplicate *values* under different keys still deduplicate to one
    computation, and semantics (cache short-circuit, worker fan-out,
    serial fallback) are exactly :func:`simulate_many`'s.
    """
    keys = list(points.keys())
    results = simulate_many(
        session, [points[key] for key in keys], jobs,
        use_cache=use_cache, stats=stats,
    )
    return dict(zip(keys, results))


# ----------------------------------------------------------------------
# Custom-placement sweeps (partitioner / seed / multicast ablations)
# ----------------------------------------------------------------------
def _simulate_placement_in_worker(spec: dict):
    """Worker entry point for :func:`simulate_placements`.

    Program compilation goes through the shared ``programs`` cache
    namespace: multicast/PE ablation points over one placement reuse
    the compiled kernels of any prior point that agreed on everything
    program construction reads.
    """
    from repro.core.placement import Placement
    from repro.experiments.common import (
        ExperimentSession,
        compile_pcg_program,
    )
    from repro.sim.machine import AzulMachine, verify_iteration
    from repro.sim.pe import pe_model_by_name

    session = ExperimentSession(
        spec["config"], scale=spec["scale"], use_cache=spec["use_cache"],
    )
    prepared = session.prepare(spec["name"])
    placement = Placement(
        n_tiles=spec["n_tiles"],
        a_tile=spec["a_tile"],
        l_tile=spec["l_tile"],
        vec_tile=spec["vec_tile"],
        mapper=spec["mapper"],
    )
    pe = spec["pe"]
    model = pe if isinstance(pe, PEModel) else pe_model_by_name(pe)
    machine = AzulMachine(spec["config"], model)
    program = compile_pcg_program(
        machine, prepared.matrix, prepared.lower, placement,
        multicast=spec["multicast"], cache=session.cache,
        use_cache=spec["use_cache"], label=spec["name"],
    )
    result = machine.simulate_iteration(
        program, p=prepared.b, r=prepared.b,
        record_issue_trace=spec["trace"],
    )
    if spec["check"]:
        verify_iteration(result, prepared.matrix, prepared.lower,
                         prepared.b)
    return result


def simulate_placements(session, name: Optional[str], placements: Sequence,
                        *, pe: Union[str, PEModel] = "azul",
                        check: bool = False, multicast: str = "tree",
                        scale: Optional[int] = None,
                        jobs: Optional[int] = None,
                        use_cache: Optional[bool] = None,
                        stats: Optional[dict] = None) -> List:
    """Simulate explicit placements (usually one matrix), in parallel.

    The ablation studies (partitioner presets, seeds, multicast modes)
    sweep *placements* rather than registry names, so the points are
    keyed on the placement content itself (tile-assignment array
    digests) — two identical placements share one cache entry and one
    computation, whatever produced them.  Semantics match
    :func:`simulate_many`: point-order results, cache short-circuit,
    in-flight dedup, graceful serial fallback.

    Each entry of ``placements`` is either a ``Placement`` (taking the
    call-level ``name``/``pe``/``check``/``multicast`` defaults) or a
    dict ``{"placement": ..., "name": ..., "multicast": ...,
    "check": ..., "pe": ...}`` overriding them per point — the latter
    lets one call fan out a mixed sweep (e.g. tree vs unicast per
    matrix in ``abl_trees``).
    """
    from repro.experiments.common import (
        SIMULATION_NAMESPACE,
        SIMULATION_SCHEMA,
        _pe_key_part,
    )

    use_cache = session.use_cache if use_cache is None else bool(use_cache)
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    scale = session.scale if scale is None else int(scale)
    config = session.config
    trace = obs.tracing_enabled()

    specs = []
    keys = []
    for entry in placements:
        if isinstance(entry, dict):
            placement = entry["placement"]
            point_name = entry.get("name", name)
            point_pe = entry.get("pe", pe)
            point_check = bool(entry.get("check", check))
            point_multicast = entry.get("multicast", multicast)
        else:
            placement = entry
            point_name = name
            point_pe = pe
            point_check = bool(check)
            point_multicast = multicast
        if point_name is None:
            raise ValueError(
                "simulate_placements: no matrix name for a point — pass "
                "a call-level name or a per-entry {'name': ...}"
            )
        specs.append({
            "name": point_name,
            "scale": scale,
            "pe": point_pe,
            "check": point_check,
            "multicast": point_multicast,
            "config": config,
            "use_cache": use_cache,
            "trace": trace,
            "n_tiles": placement.n_tiles,
            "a_tile": placement.a_tile,
            "l_tile": placement.l_tile,
            "vec_tile": placement.vec_tile,
            "mapper": placement.mapper,
        })
        keys.append(session.cache.key(
            "simulate_placement", point_name, scale, _pe_key_part(point_pe),
            point_check, point_multicast, trace, config.cache_key(),
            placement.a_tile, placement.l_tile, placement.vec_tile,
            SIMULATION_SCHEMA,
        ))

    by_key: Dict[str, List[int]] = {}
    for index, key in enumerate(keys):
        by_key.setdefault(key, []).append(index)

    results: List = [None] * len(specs)
    info = {
        "points": len(specs),
        "unique": len(by_key),
        "deduplicated": len(specs) - len(by_key),
        "cache_hits": 0,
        "computed_parallel": 0,
        "computed_serial": 0,
        "worker_failures": 0,
    }

    from repro.cache import PICKLE as _PICKLE  # local alias for clarity

    with obs.span("sweep.simulate_placements", points=len(specs),
                  jobs=jobs) as sweep_span:
        pending = []
        for key, indices in by_key.items():
            if use_cache:
                cached = session.cache.get(SIMULATION_NAMESPACE, key, _PICKLE)
                if cached is not MISS:
                    info["cache_hits"] += 1
                    if trace:
                        spec = specs[indices[0]]
                        session._bridge_trace(
                            key, f"{spec['name']}/{spec['mapper']}", cached,
                        )
                    for index in indices:
                        results[index] = cached
                    continue
            pending.append((key, indices, specs[indices[0]]))

        if pending:
            computed = (
                _run_pool(pending, jobs, info,
                          worker=_simulate_placement_in_worker)
                if jobs > 1 and len(pending) > 1
                else {}
            )
            for key, indices, spec in pending:
                value = computed.get(key, _FAILED)
                if value is _FAILED:
                    value = _simulate_placement_in_worker(spec)
                    info["computed_serial"] += 1
                if use_cache:
                    # Placement-keyed results are cached by the parent (the
                    # worker has no session-level key for them).
                    session.cache.put(SIMULATION_NAMESPACE, key, value,
                                      _PICKLE)
                if trace:
                    session._bridge_trace(
                        key, f"{spec['name']}/{spec['mapper']}", value,
                    )
                for index in indices:
                    results[index] = value

        sweep_span.set(**info)

    for counter_name, value in info.items():
        obs.counter(f"sweep.{counter_name}", value)

    if stats is not None:
        stats.update(info)
    return results
