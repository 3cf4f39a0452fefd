"""Experiment harness: one declarative spec per paper table/figure.

Each module registers an :class:`~repro.experiments.spec.ExperimentSpec`
(keyed placement and simulation points + a ``reduce`` into an
``ExperimentResult``) and nothing else.  Every run goes through the
staged executor (:mod:`repro.experiments.executor`), which
deduplicates points globally across experiments, checkpoints results
for ``--resume``, and isolates failures: drive it via
``python -m repro.experiments.runner`` (or ``repro-azul run``), or run
one experiment with :func:`run_experiment`.  See DESIGN.md for the
experiment index and docs/experiments.md for the spec/executor
contract.
"""

from repro.experiments.runner import (
    EXPERIMENTS,
    load_spec,
    load_specs,
    run_experiment,
)
from repro.experiments.spec import ExperimentPlan, ExperimentSpec, register

__all__ = [
    "EXPERIMENTS",
    "ExperimentPlan",
    "ExperimentSpec",
    "load_spec",
    "load_specs",
    "register",
    "run_experiment",
]
