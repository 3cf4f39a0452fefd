"""Parallel sweep execution across processes.

Experiment sweeps are embarrassingly parallel across their points.  A
point is a :class:`PlacementSpec` (one mapping of one matrix) or a
:class:`SimPoint` (one steady-state simulation of a mapped matrix).
The executor resolves every point of a run to its cache key
(:func:`resolve`), merges equal keys across experiments, and hands the
unique keyed points to :func:`simulate_many`, which fans them out over
a :class:`~concurrent.futures.ProcessPoolExecutor` and returns what a
serial loop of :meth:`ExperimentSession.placement` /
:meth:`ExperimentSession.simulate` calls would:

* **Cache short-circuit** — every point is looked up in the shared
  on-disk artifact cache *before* any worker is spawned; a fully-cached
  sweep never pays process start-up, and a missed point is computed
  (:meth:`ExperimentSession.compute`) without a second lookup.
* **Placements first** — placement points are dispatched before the
  simulations.  At ``jobs=1`` they are also computed first, so every
  simulation reads its placement from the cache; in a pool a
  simulation may start while its placement is still being computed,
  and then maps the matrix again itself.
* **Shared artifact cache** — workers inherit ``REPRO_CACHE_*`` from
  the environment, so their results land in the same store the parent
  (and the next run) reads.  Each task's cache counters travel back
  with its outcome, and the parent counts them.
* **Graceful degradation** — a crashed worker, a broken pool, or an
  unpicklable result demotes only the affected points to an in-process
  serial computation; ``simulate_many`` never fails a sweep because of
  parallel machinery.  A point that raises is computed once, its
  exception takes the place of its result, and the sweep goes on with
  the others.

Results are returned in point order and are identical to what a serial
``jobs=1`` run produces (mapping and simulation are deterministic; see
``tests/test_parallel.py``).  This is the one ``repro`` module that
starts processes (``tools/check_layers.py`` rule 11).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Tuple, TypeVar, Union

import repro.obs as obs
from repro.cache import MISS, ArtifactCache, CacheStats
from repro.config import ENV_JOBS, AzulConfig
from repro.core.registry import AZUL_DEFAULTS
from repro.sim.pe import PEModel

__all__ = ["PlacementSpec", "SimPoint", "resolve", "simulate_many",
           "default_jobs", "ENV_JOBS"]

#: Sentinel marking a worker failure (distinct from any result).
_FAILED = object()


@dataclass(frozen=True)
class PlacementSpec:
    """One placement: a matrix mapped by one mapper.

    ``scale``/``n_tiles``/``preset`` default to the owning session's
    values when ``None``.  ``seed`` (the partitioner's), ``q`` (temporal
    balance quantiles) and ``row_weight`` (reduction-edge weight) shape
    only the ``azul`` mapper; ``None`` means its default.  A resolved
    spec (see :func:`resolve`) is the placement's cache key.
    """

    name: str
    mapper: str = "azul"
    n_tiles: Optional[int] = None
    scale: Optional[int] = None
    preset: Optional[str] = None
    seed: Optional[int] = None
    q: Optional[int] = None
    row_weight: Optional[float] = None


@dataclass(frozen=True)
class SimPoint:
    """One simulated PCG iteration: a placement, a PE and a machine.

    ``scale``/``preset``/``config`` default to the owning session's
    values when ``None``; ``seed``/``row_weight`` select the placement
    as in :class:`PlacementSpec`, which maps over every tile of
    ``config`` with the default ``q``.  ``pe`` accepts either a
    registered model name or a :class:`~repro.sim.pe.PEModel` instance
    (ablations sweep synthetic PEs).  ``multicast`` is ``"tree"`` or
    ``"unicast"``.
    """

    name: str
    mapper: str = "azul"
    pe: Union[str, PEModel] = "azul"
    scale: Optional[int] = None
    preset: Optional[str] = None
    config: Optional[AzulConfig] = None
    #: Record per-op issue traces; ``None`` follows the parent's
    #: :func:`repro.obs.tracing_enabled` (workers never inherit obs
    #: enablement, so the resolved flag travels in the spec).
    trace: Optional[bool] = None
    seed: Optional[int] = None
    row_weight: Optional[float] = None
    multicast: str = "tree"

    @property
    def placement(self) -> PlacementSpec:
        """The placement this point simulates, at the default ``q``.

        The ``azul`` mapper's ``q`` is filled in here, so the placement
        of a resolved point is itself resolved.
        """
        return PlacementSpec(
            self.name, self.mapper,
            n_tiles=None if self.config is None else self.config.num_tiles,
            scale=self.scale, preset=self.preset, seed=self.seed,
            q=AZUL_DEFAULTS["q"] if self.mapper == "azul" else None,
            row_weight=self.row_weight,
        )


Point = Union[PlacementSpec, SimPoint]

#: :func:`resolve` returns the kind of point it is given.
_P = TypeVar("_P", bound=Point)


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


def resolve(session, point: _P) -> Tuple[_P, str]:
    """Fill a point's ``None`` fields from ``session``; return it and its key.

    A resolved point is session-independent: any session may compute
    it and it lands on the same cache key, which is what lets the
    executor merge points across experiments.  The ``azul`` mapper's
    knobs resolve to :data:`~repro.core.registry.AZUL_DEFAULTS` and are
    cast to their defaults' types, so a knob given at its default value
    (``row_weight=2`` as well as ``2.0``) keys the same placement as
    one left out.
    """
    from repro.experiments.common import placement_key, simulation_key

    if isinstance(point, SimPoint):
        config = session.config if point.config is None else point.config
        simulation = replace(point, config=config)
        placement, _ = resolve(session, simulation.placement)
        simulation = replace(
            simulation, scale=placement.scale, preset=placement.preset,
            seed=placement.seed, row_weight=placement.row_weight,
            trace=(obs.tracing_enabled() if point.trace is None
                   else bool(point.trace)),
        )
        return simulation, simulation_key(simulation)
    fields: dict = {
        "n_tiles": (session.config.num_tiles if point.n_tiles is None
                    else int(point.n_tiles)),
        "scale": session.scale if point.scale is None else int(point.scale),
        "preset": session.preset if point.preset is None else point.preset,
    }
    if point.mapper == "azul":
        for knob, default in AZUL_DEFAULTS.items():
            value = getattr(point, knob)
            fields[knob] = default if value is None else type(default)(value)
    placement = replace(point, **fields)
    return placement, placement_key(placement)


def _attempt(session, key: str, point: Point):
    """The result of one point the cache missed, or the exception
    computing it raised (serial path and fallback)."""
    try:
        return session.compute(point, key)
    except Exception as exc:  # noqa: BLE001 — fails only this point
        return exc


def _compute_in_worker(key: str, point: Point) -> tuple:
    """Top-level worker entry point (must be picklable by reference).

    Builds a fresh session in the worker process; the artifact cache is
    shared with the parent through the inherited ``REPRO_CACHE_*``
    environment, so the computed result is persisted for everyone.
    Returns what :func:`_attempt` returns and the task's cache
    counters, which the worker does not persist (a forked worker exits
    without ``atexit`` and holds the parent's unflushed counts).
    """
    from repro.experiments.common import ExperimentSession

    cache = ArtifactCache.default()
    cache.persist_stats = False
    cache.stats = CacheStats()
    return _attempt(ExperimentSession(cache=cache), key, point), cache.stats


def _run_pool(pending: List[tuple], jobs: int, info: dict,
              worker=_compute_in_worker) -> dict:
    """Fan ``(key, point)`` cache misses out over a process pool.

    Each task runs ``worker(key, point)``.  Returns ``{key: what worker
    returned, or _FAILED}``; pool-level failures leave keys absent,
    which the caller treats the same as ``_FAILED``.
    """
    from concurrent.futures import ProcessPoolExecutor

    computed: dict = {}
    try:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(pending))
        ) as pool:
            futures = [
                (key, pool.submit(worker, key, point))
                for key, point in pending
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


def simulate_many(session, points: Mapping[str, Point],
                  jobs: Optional[int] = None, *,
                  stats: Optional[dict] = None) -> List:
    """Compute resolved sweep points, fanned out across processes.

    Parameters
    ----------
    session:
        The owning :class:`~repro.experiments.common.ExperimentSession`.
    points:
        Resolved :class:`PlacementSpec` and :class:`SimPoint` points
        keyed by their cache keys, as :func:`resolve` returns them.
        The keys are unique, so each point is computed at most once.
    jobs:
        Worker processes; ``None`` consults ``REPRO_JOBS`` then a
        capped cpu count, ``1`` forces the serial path.
    stats:
        Optional dict, filled with sweep observability counters
        (``points``, ``cache_hits``, ``computed_parallel``,
        ``computed_serial``, ``worker_failures``), also when the sweep
        raises.

    Returns
    -------
    list
        Results in point order: a
        :class:`~repro.core.placement.Placement` for a placement point,
        exactly what ``session.simulate`` returns for a simulation, or
        the exception computing the point raised.
    """
    keys = list(points)
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    # Placements go first, so a serial sweep's simulations find theirs
    # cached.
    order = sorted(keys, key=lambda key: isinstance(points[key], SimPoint))
    results: Dict[str, object] = {}
    info = {
        "points": len(keys),
        "cache_hits": 0,
        "computed_parallel": 0,
        "computed_serial": 0,
        "worker_failures": 0,
    }
    try:
        with obs.span("sweep.simulate_many", points=len(keys),
                      jobs=jobs) as sweep_span:
            # Cache short-circuit before any worker spawns.
            pending = []
            for key in order:
                point = points[key]
                cached = session.cached(point, key)
                if cached is MISS:
                    pending.append((key, point))
                    continue
                info["cache_hits"] += 1
                if getattr(point, "trace", False):
                    session._bridge_trace(
                        key, f"{point.name}/{point.mapper}", cached,
                    )
                results[key] = cached

            computed = (
                _run_pool(pending, jobs, info)
                if jobs > 1 and len(pending) > 1
                else {}
            )
            for key, point in pending:
                value = computed.get(key, _FAILED)
                if value is _FAILED:
                    value = _attempt(session, key, point)
                    info["computed_serial"] += 1
                else:
                    value, counts = value
                    session.cache.add_stats(counts)
                    if (getattr(point, "trace", False)
                            and not isinstance(value, Exception)):
                        # Workers don't inherit obs enablement; issue
                        # logs travel back in the result and the parent
                        # bridges.
                        session._bridge_trace(
                            key, f"{point.name}/{point.mapper}", value,
                        )
                results[key] = value

            sweep_span.set(**info)
    finally:
        for counter_name, value in info.items():
            obs.counter(f"sweep.{counter_name}", value)
        if stats is not None:
            stats.update(info)
    return [results[key] for key in keys]
