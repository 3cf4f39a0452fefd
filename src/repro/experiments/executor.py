"""Staged, deduplicating, resumable executor for experiment specs.

The runner used to loop ``module.run()`` per experiment: every module
fanned out its own sweep, shared work was only recovered through the
disk cache *after* each point had been planned and keyed again, one
crash lost the whole run, and one bad experiment aborted everything
behind it.  The executor replaces that loop with four stages over the
declarative specs (:mod:`repro.experiments.spec`):

1. **Plan** — build every selected experiment's
   :class:`~repro.experiments.spec.ExperimentPlan` (cheap by
   contract) and resolve each keyed point — a placement or a
   simulation — to its content-addressed cache key.
2. **Dedup globally** — merge the points of *all* experiments by
   cache key: one ``simulate_many`` fan-out serves every experiment
   that needs a given point.  A full-suite run shares dozens of
   azul/azul and dalorex points between the headline figures, the
   breakdown figures, and the efficiency studies; the merged sweep
   computes each exactly once.  ``--plan`` prints this as a dry-run
   (per-experiment point counts, global unique counts, predicted
   cache hits, and the placements the run will compute) without
   computing anything.
3. **Sweep** — one :func:`repro.parallel.simulate_many` call over
   the unique points, placements dispatched first (``--jobs``
   workers, cache short-circuit, serial fallback).  A point that
   raises fails only the experiments that own it.
4. **Reduce + checkpoint** — each experiment's ``reduce`` runs in
   isolation; the finished :class:`~repro.perf.ExperimentResult` is
   checkpointed through :mod:`repro.cache`, so ``--resume`` skips
   completed experiments after a crash or Ctrl-C (and the simulation
   cache covers points finished mid-sweep).  With ``keep_going`` a
   failing experiment is recorded and the rest still run; the report
   aggregates the exit code.

It is the only way an experiment runs: the runner drives it for a
selection, and :func:`repro.experiments.runner.run_experiment` for one
experiment.

Instrumented through :mod:`repro.obs` as ``exec.*`` counters and
spans (no-ops unless observability is enabled).
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import repro.obs as obs
from repro.cache import MISS, PICKLE, ArtifactCache
from repro.cache.keys import canonical_encode
from repro.experiments.spec import ExperimentPlan, ExperimentSpec
from repro.parallel import SimPoint, resolve
from repro.perf import ExperimentResult

__all__ = [
    "EXPERIMENT_NAMESPACE",
    "EXPERIMENT_SCHEMA",
    "ExperimentFailure",
    "ExperimentOutcome",
    "ExecutionReport",
    "SweepPlan",
    "plan_experiments",
    "execute",
]

#: Cache namespace holding per-experiment result checkpoints.
EXPERIMENT_NAMESPACE = "experiments"

#: Checkpoint schema: bump when ExperimentResult's pickled shape or
#: the checkpoint key derivation changes incompatibly.  ``v2``: the
#: keys of placement points join the simulation keys.  ``v3``: suite
#: right-hand sides changed (see ``SIMULATION_SCHEMA``), and an
#: experiment without simulation points (tab_fill's PCG solves) would
#: otherwise replay results computed from the old ones.
EXPERIMENT_SCHEMA = "v3"


class ExperimentFailure(RuntimeError):
    """One experiment failed and ``keep_going`` was off."""

    def __init__(self, experiment_id: str, cause: BaseException):
        super().__init__(
            f"experiment {experiment_id!r} failed: {cause!r} "
            "(run with --keep-going to continue past failures)"
        )
        self.experiment_id = experiment_id
        self.cause = cause


# ----------------------------------------------------------------------
# Plan containers
# ----------------------------------------------------------------------
@dataclass
class _Entry:
    """One selected experiment's planning state."""

    spec: ExperimentSpec
    overrides: Dict[str, Any]
    plan: Optional[ExperimentPlan] = None
    #: Build-time failure (reported; excluded from the sweep).
    error: Optional[BaseException] = None
    #: point key -> fully-resolved SimPoint or PlacementSpec.
    resolved: Dict[str, Any] = field(default_factory=dict)
    #: point key -> global cache key of the point.
    point_keys: Dict[str, str] = field(default_factory=dict)
    checkpoint_key: str = ""
    #: Checkpointed result found during planning (``resume`` runs).
    checkpointed: Any = MISS


@dataclass
class SweepPlan:
    """The dry-run view: what a run *would* compute.

    ``experiments`` rows carry per-experiment counts; the totals show
    the global-dedup effect (``unique_points`` < ``sum_unique`` means
    cross-experiment sharing; both are < ``total_points`` when an
    experiment repeats a point internally).  The ``*points`` counts
    are simulations; placement points are counted apart.
    """

    experiments: List[dict] = field(default_factory=list)
    total_points: int = 0
    #: Sum of per-experiment unique counts (no cross-experiment dedup).
    sum_unique: int = 0
    #: Globally unique points across all experiments.
    unique_points: int = 0
    predicted_cache_hits: int = 0
    to_compute: int = 0
    #: Placement points, and the globally unique / cached ones.
    placement_points: int = 0
    unique_placements: int = 0
    placement_cache_hits: int = 0
    #: Placements the run will compute: the uncached placement points
    #: and the uncached placements of the simulations to compute.
    placements_to_compute: int = 0
    resumed: int = 0
    build_failures: int = 0

    @property
    def deduplicated(self) -> int:
        return self.total_points - self.unique_points

    def render(self) -> str:
        """The ``--plan`` table."""
        lines = [
            f"{'experiment':18s} {'status':10s} {'points':>6s} "
            f"{'unique':>6s} {'cached':>6s} {'places':>6s}"
        ]
        lines.append("-" * len(lines[0]))
        for row in self.experiments:
            lines.append(
                f"{row['id']:18s} {row['status']:10s} "
                f"{row['points']:6d} {row['unique']:6d} "
                f"{row['cached']:6d} {row['placements']:6d}"
            )
        lines.append("")
        lines.append(
            f"plan: {self.total_points} points, "
            f"{self.unique_points} unique globally "
            f"({self.deduplicated} deduplicated; per-experiment sum "
            f"{self.sum_unique}), {self.predicted_cache_hits} predicted "
            f"cache hits, {self.to_compute} to simulate"
        )
        lines.append(
            f"placements: {self.placement_points} points, "
            f"{self.unique_placements} unique globally, "
            f"{self.placement_cache_hits} predicted cache hits, "
            f"{self.placements_to_compute} to compute (with those the "
            "simulations need)"
        )
        if self.resumed:
            lines.append(
                f"resume: {self.resumed} experiment(s) already "
                "checkpointed — skipped entirely"
            )
        if self.build_failures:
            lines.append(
                f"WARNING: {self.build_failures} experiment(s) failed "
                "to build a plan"
            )
        return "\n".join(lines)


@dataclass
class ExperimentOutcome:
    """What happened to one experiment in an executor run."""

    experiment_id: str
    #: ``ok`` | ``resumed`` | ``failed``.
    status: str
    result: Optional[ExperimentResult] = None
    error: Optional[str] = None
    seconds: float = 0.0


@dataclass
class ExecutionReport:
    """Aggregated run result: per-experiment outcomes + sweep stats."""

    outcomes: List[ExperimentOutcome] = field(default_factory=list)
    sweep: SweepPlan = field(default_factory=SweepPlan)
    #: ``simulate_many`` observability counters for the merged sweep.
    sweep_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return 1 if any(o.status == "failed" for o in self.outcomes) else 0

    def failures(self) -> List[ExperimentOutcome]:
        return [o for o in self.outcomes if o.status == "failed"]

    def results(self) -> Dict[str, ExperimentResult]:
        return {
            o.experiment_id: o.result
            for o in self.outcomes if o.result is not None
        }


# ----------------------------------------------------------------------
# Key derivation
# ----------------------------------------------------------------------
def _override_fingerprint(overrides: Dict[str, Any]) -> str:
    """Stable encoding of builder overrides for the checkpoint key.

    ``jobs`` never appears here (parallelism cannot change results).
    Values outside the canonical cache-key vocabulary fall back to
    ``repr`` — stable for the dataclasses and tuples experiments use.
    """
    parts = []
    for name in sorted(overrides):
        value = overrides[name]
        try:
            encoded = canonical_encode(value)
        except TypeError:
            encoded = f"r:{value!r}"
        parts.append(f"{name}={encoded}")
    return ";".join(parts)


def _checkpoint_key(cache: ArtifactCache, entry: _Entry) -> str:
    """Content-addressed key of one experiment's result checkpoint.

    Keyed on the experiment id, the override fingerprint, and the
    sorted cache keys of its points, so a checkpoint can never be
    replayed against a different machine config, matrix set, or
    placement or simulation schema.
    """
    return cache.key(
        "experiment", entry.spec.id, EXPERIMENT_SCHEMA,
        _override_fingerprint(entry.overrides),
        sorted(entry.point_keys.values()),
    )


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def plan_experiments(
    experiments: Sequence[ExperimentSpec], *,
    resume: bool = False,
    overrides: Optional[Dict[str, Any]] = None,
    keep_going: bool = False,
    cache: Optional[ArtifactCache] = None,
) -> tuple:
    """Stage 1+2: build plans, resolve keys, compute the global dedup.

    Returns ``(entries, sweep_plan)``.  ``overrides`` are forwarded
    to each builder filtered by what it declares (an override a
    builder does not take is simply not offered to it).  With
    ``resume``, experiments whose checkpoint exists are marked
    resumed and contribute no points.  A builder failure aborts
    unless ``keep_going``.
    """
    cache = cache if cache is not None else ArtifactCache.default()
    overrides = dict(overrides or {})
    specs = list(experiments)

    entries: List[_Entry] = []
    with obs.span("exec.plan", experiments=len(specs)):
        for spec in specs:
            accepted = {
                name: value for name, value in overrides.items()
                if spec.accepts(name)
            }
            entry = _Entry(spec=spec, overrides=accepted)
            entries.append(entry)
            try:
                entry.plan = spec.plan(**accepted)
                for point_key, point in entry.plan.points.items():
                    (entry.resolved[point_key],
                     entry.point_keys[point_key]) = resolve(
                        entry.plan.session, point)
                entry.checkpoint_key = _checkpoint_key(cache, entry)
                if resume:
                    entry.checkpointed = cache.get(
                        EXPERIMENT_NAMESPACE, entry.checkpoint_key,
                        PICKLE,
                    )
            except Exception as exc:  # noqa: BLE001 — isolation contract
                entry.error = exc
                if not keep_going:
                    raise ExperimentFailure(spec.id, exc) from exc

        sweep = _summarize(entries, cache)

    obs.counter("exec.experiments", len(entries))
    obs.counter("exec.points.total", sweep.total_points)
    obs.counter("exec.points.unique", sweep.unique_points)
    obs.counter("exec.points.deduplicated", sweep.deduplicated)
    obs.counter("exec.points.predicted_cache_hits",
                sweep.predicted_cache_hits)
    obs.counter("exec.placements.total", sweep.placement_points)
    obs.counter("exec.placements.unique", sweep.unique_placements)
    obs.counter("exec.placements.predicted_cache_hits",
                sweep.placement_cache_hits)
    obs.counter("exec.placements.to_compute", sweep.placements_to_compute)
    if sweep.resumed:
        obs.counter("exec.resumed", sweep.resumed)
    return entries, sweep


def _summarize(entries: List[_Entry], cache: ArtifactCache) -> SweepPlan:
    """Fold per-experiment plans into the global SweepPlan."""
    from repro.experiments.common import cache_slot, placement_key

    on_disk: Dict[str, bool] = {}

    def cached(point, key: str) -> bool:
        if key not in on_disk:
            namespace, serializer = cache_slot(point)
            on_disk[key] = cache.contains(namespace, key, serializer)
        return on_disk[key]

    sweep = SweepPlan()
    simulations: Dict[str, SimPoint] = {}
    placements: Dict[str, Any] = {}
    for entry in entries:
        if entry.error is not None:
            status = "error"
        elif entry.checkpointed is not MISS:
            status = "resumed"
            sweep.resumed += 1
        else:
            status = "pending"
        points = [] if status != "pending" else [
            (entry.resolved[point_key], key)
            for point_key, key in entry.point_keys.items()
        ]
        keys = [key for point, key in points if isinstance(point, SimPoint)]
        for point, key in points:
            if isinstance(point, SimPoint):
                simulations[key] = point
            else:
                placements[key] = point
        sweep.experiments.append({
            "id": entry.spec.id,
            "status": status,
            "points": len(keys),
            "unique": len(set(keys)),
            "cached": sum(cached(simulations[key], key) for key in set(keys)),
            "placements": len(points) - len(keys),
        })
        sweep.total_points += len(keys)
        sweep.sum_unique += len(set(keys))
        sweep.placement_points += len(points) - len(keys)
        sweep.build_failures += int(entry.error is not None)
    sweep.unique_points = len(simulations)
    sweep.predicted_cache_hits = sum(
        cached(point, key) for key, point in simulations.items()
    )
    sweep.to_compute = sweep.unique_points - sweep.predicted_cache_hits
    sweep.unique_placements = len(placements)
    sweep.placement_cache_hits = sum(
        cached(point, key) for key, point in placements.items()
    )
    # A simulation to compute needs its placement, computed on a miss.
    for key, point in simulations.items():
        if not cached(point, key):
            placements.setdefault(placement_key(point.placement),
                                  point.placement)
    sweep.placements_to_compute = sum(
        not cached(point, key) for key, point in placements.items()
    )
    return sweep


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def execute(
    experiments: Sequence[ExperimentSpec], *,
    jobs: Optional[int] = None,
    keep_going: bool = False,
    resume: bool = False,
    overrides: Optional[Dict[str, Any]] = None,
    cache: Optional[ArtifactCache] = None,
    on_outcome: Optional[Callable[[ExperimentOutcome], None]] = None,
) -> ExecutionReport:
    """Run experiments through the staged executor.

    Parameters
    ----------
    experiments:
        :class:`ExperimentSpec` objects, which
        :func:`repro.experiments.runner.load_specs` and
        :func:`~repro.experiments.runner.run_experiment` resolve from
        experiment ids.
    jobs:
        Worker processes for the merged sweep.
    keep_going:
        Record a failing experiment and continue with the rest; the
        report's ``exit_code`` aggregates to 1.  Off: the first
        failure raises :class:`ExperimentFailure`.
    resume:
        Skip experiments whose checkpointed result is already in the
        artifact cache (written at the end of every successful
        experiment), returning the checkpointed result instead.
    overrides:
        Builder overrides (e.g. ``matrices=[...]``), forwarded to
        each spec filtered by what its builder declares.
    on_outcome:
        Callback invoked as each experiment completes (streaming
        output for the runner).
    """
    cache = cache if cache is not None else ArtifactCache.default()
    report = ExecutionReport()
    with obs.timer("exec.run", experiments=len(experiments)):
        entries, report.sweep = plan_experiments(
            experiments, resume=resume, overrides=overrides,
            keep_going=keep_going, cache=cache,
        )

        # Stage 3: one merged fan-out over the globally-unique points.
        pending = [
            e for e in entries
            if e.error is None and e.checkpointed is MISS
        ]
        results_by_key = _sweep(pending, jobs, report.sweep_stats)

        # Stage 4: reduce + checkpoint, isolating failures.
        for entry in entries:
            outcome = _finish(entry, results_by_key, cache)
            report.outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(outcome)
            if outcome.status == "failed" and not keep_going:
                obs.counter("exec.failures", 1)
                raise ExperimentFailure(
                    outcome.experiment_id,
                    entry.error if entry.error is not None
                    else RuntimeError(outcome.error or "unknown"),
                )

    failures = len(report.failures())
    if failures:
        obs.counter("exec.failures", failures)
    obs.counter("exec.completed",
                sum(o.status == "ok" for o in report.outcomes))
    return report


def _sweep(pending: List[_Entry], jobs: Optional[int],
           stats: Dict[str, int]) -> Dict[str, Any]:
    """Compute the globally unique points of ``pending``, keyed.

    One merged ``simulate_many`` serves every experiment and computes
    each point once.  A point that raises fails only the experiments
    that own it: each records the exception as its error.
    """
    from repro.parallel import simulate_many

    unique: Dict[str, Any] = {}
    for entry in pending:
        for point_key, global_key in entry.point_keys.items():
            unique.setdefault(global_key, entry.resolved[point_key])
    if not unique:
        return {}
    session = next(e.plan.session for e in pending if e.point_keys)
    with obs.span("exec.sweep", unique_points=len(unique)):
        results = simulate_many(session, unique, jobs, stats=stats)
    results_by_key = dict(zip(unique, results))
    for entry in pending:
        for key in entry.point_keys.values():
            if isinstance(results_by_key[key], Exception):
                entry.error = results_by_key[key]
                break
    return results_by_key


def _finish(entry: _Entry, results_by_key: Dict[str, Any],
            cache: ArtifactCache) -> ExperimentOutcome:
    """Reduce one experiment (or surface its earlier failure)."""
    experiment_id = entry.spec.id
    if entry.error is not None:
        return ExperimentOutcome(
            experiment_id=experiment_id, status="failed",
            error="".join(traceback.format_exception_only(entry.error))
            .strip(),
        )
    if entry.checkpointed is not MISS:
        return ExperimentOutcome(
            experiment_id=experiment_id, status="resumed",
            result=entry.checkpointed,
        )
    start = time.perf_counter()
    try:
        with obs.timer("exec.reduce", experiment=experiment_id):
            sims = {
                point_key: results_by_key[global_key]
                for point_key, global_key in entry.point_keys.items()
            }
            result = entry.plan.reduce(sims)
        cache.put(EXPERIMENT_NAMESPACE, entry.checkpoint_key, result,
                  PICKLE)
        return ExperimentOutcome(
            experiment_id=experiment_id, status="ok", result=result,
            seconds=time.perf_counter() - start,
        )
    except Exception as exc:  # noqa: BLE001 — isolation contract
        entry.error = exc
        return ExperimentOutcome(
            experiment_id=experiment_id, status="failed",
            error="".join(
                traceback.format_exception_only(exc)
            ).strip(),
            seconds=time.perf_counter() - start,
        )
