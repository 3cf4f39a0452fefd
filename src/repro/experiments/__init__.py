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
contract.  Public names are imported on first use, so
``python -m repro.experiments.runner`` finds the runner not yet
imported.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.experiments.runner": (
        "EXPERIMENTS", "load_spec", "load_specs", "run_experiment",
    ),
    "repro.experiments.spec": ("ExperimentPlan", "ExperimentSpec",
                               "register"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
