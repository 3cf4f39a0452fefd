"""Declarative experiment specs and the process-wide spec registry.

An experiment used to be an ad-hoc ``run()`` function that built
``SimPoint`` lists, fanned them out, and zipped results back by
positional index (``sims[2 * index]``).  That shape made every module
re-implement the same loop and hid the sweep structure from the
runner, so nothing above a single experiment could share work.

A spec's builder splits one experiment into two declarative parts:

``points``
    A *cheap* builder product: a ``{key: point}`` mapping naming every
    placement (:class:`~repro.parallel.PlacementSpec`) and steady-state
    simulation (:class:`~repro.parallel.SimPoint`) the experiment
    needs.  Keys are human-readable (``"consph/azul"``) and local to
    the experiment; the executor resolves each point to its
    content-addressed cache key, so identical points are deduplicated
    *globally* across every experiment in a run.
``reduce``
    ``reduce(sims) -> ExperimentResult`` where ``sims`` maps each
    point key to its result: a
    :class:`~repro.core.placement.Placement` or a simulation result.
    Everything that is not a point — analytic models, traffic
    analysis, single-kernel simulations — lives here.

Builders MUST be cheap: no ``prepare``/``placement``/``simulate``
calls — the executor builds every selected experiment's plan up front
to compute the global sweep (and the ``--plan`` dry-run must never
compute anything).  A mapping or a PCG-iteration simulation is a
point; other expensive work belongs in ``reduce``.

A spec never runs itself: the executor
(:mod:`repro.experiments.executor`) computes its points and reduces
them, and :func:`repro.experiments.runner.run_experiment` runs one
experiment by id through it.

Registration::

    from repro.experiments.spec import ExperimentPlan, register

    @register("fig09", title="Dalorex PCG throughput",
              tags=("paper", "figure", "sim", "sweep"))
    def spec(matrices=None, config=None, scale=1):
        session = ExperimentSession(config, scale=scale)
        points = {name: SimPoint(name, mapper="round_robin",
                                 pe="dalorex")
                  for name in matrices or default_matrices()}

        def reduce(sims):
            ...
            return result

        return ExperimentPlan(session=session, points=points,
                              reduce=reduce)

The decorator returns the :class:`ExperimentSpec` (conventionally
bound to the module attribute ``spec``) and records it in the
registry keyed by experiment id.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Tuple

from repro.perf import ExperimentResult

__all__ = [
    "ExperimentPlan",
    "ExperimentSpec",
    "register",
    "registered_specs",
    "get_registered",
    "unregister",
]

#: ``reduce`` signature: keyed simulation results -> rendered result.
Reducer = Callable[[Mapping[str, Any]], ExperimentResult]


@dataclass
class ExperimentPlan:
    """One built experiment: a session, keyed points, and a reducer.

    Attributes
    ----------
    session:
        The :class:`~repro.experiments.common.ExperimentSession`
        providing defaults (config / scale / preset) for the points
        and the artifact cache everything is keyed through.
    points:
        ``{point_key: SimPoint or PlacementSpec}``; may be empty for
        analytic experiments.  Point keys are experiment-local labels;
        the executor maps them to global cache keys.
    reduce:
        Turns ``{point_key: simulation result or Placement}`` into the
        final :class:`~repro.perf.ExperimentResult`.
    """

    session: Any
    reduce: Reducer
    points: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment: identity, metadata, and plan builder."""

    id: str
    title: str
    tags: Tuple[str, ...]
    builder: Callable[..., ExperimentPlan]
    #: Keyword parameters the builder accepts (overrides vocabulary).
    params: frozenset
    #: Defining module (``repro.experiments.fig09``).
    module: str

    def accepts(self, name: str) -> bool:
        """Whether the builder takes an override named ``name``."""
        return name in self.params

    def check_overrides(self, overrides: Mapping[str, Any]) -> None:
        """Raise ``TypeError`` naming any override the builder lacks."""
        unknown = sorted(set(overrides) - self.params)
        if unknown:
            raise TypeError(
                f"experiment {self.id!r} does not accept override(s) "
                f"{', '.join(unknown)}; its builder takes "
                f"{', '.join(sorted(self.params))}"
            )

    def plan(self, **overrides: Any) -> ExperimentPlan:
        """Build this experiment's plan (cheap; never simulates)."""
        self.check_overrides(overrides)
        plan = self.builder(**overrides)
        if not isinstance(plan, ExperimentPlan):
            raise TypeError(
                f"builder of experiment {self.id!r} returned "
                f"{type(plan).__name__}, expected ExperimentPlan"
            )
        return plan

    def describe(self) -> str:
        """One ``--list`` line: id, title, and tags."""
        tags = ",".join(self.tags)
        return f"{self.id:18s} {self.title}  [{tags}]"


#: Experiment id -> spec, populated by importing experiment modules.
_REGISTRY: Dict[str, ExperimentSpec] = {}


def register(experiment_id: str, *, title: str,
             tags: Tuple[str, ...] = ()) -> Callable[
                 [Callable[..., ExperimentPlan]], ExperimentSpec]:
    """Class decorator-factory registering a plan builder as a spec.

    Returns the :class:`ExperimentSpec`, so the decorated name
    *becomes* the spec object.
    """

    def decorate(builder: Callable[..., ExperimentPlan]) -> ExperimentSpec:
        parameters = inspect.signature(builder).parameters
        previous = _REGISTRY.get(experiment_id)
        if previous is not None and previous.module != builder.__module__:
            raise ValueError(
                f"experiment id {experiment_id!r} already registered "
                f"by {previous.module}"
            )
        spec = ExperimentSpec(
            id=experiment_id,
            title=title,
            tags=tuple(tags),
            builder=builder,
            params=frozenset(parameters),
            module=builder.__module__,
        )
        _REGISTRY[experiment_id] = spec
        return spec

    return decorate


def registered_specs() -> Dict[str, ExperimentSpec]:
    """Snapshot of the registry (id -> spec) at this point in time.

    Only experiments whose modules have been imported appear; use
    :func:`repro.experiments.runner.load_specs` to import-and-list
    the full set.
    """
    return dict(_REGISTRY)


def get_registered(experiment_id: str) -> ExperimentSpec:
    """The registered spec for ``experiment_id`` (KeyError if absent)."""
    return _REGISTRY[experiment_id]


def unregister(experiment_id: str) -> None:
    """Remove one registration (tests registering synthetic specs)."""
    _REGISTRY.pop(experiment_id, None)
