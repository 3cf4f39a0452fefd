"""Experiment runner: ``python -m repro.experiments.runner [ids...]``.

Runs one, several, or all experiments through the staged executor
(:mod:`repro.experiments.executor`): every selected experiment's plan
is built up front, identical placement and simulation points are
deduplicated *globally* across experiments, one merged sweep computes
the unique points (``--jobs``), and each experiment then reduces and
checkpoints in isolation.  ``--plan`` prints the dry-run, ``--resume`` skips
checkpointed experiments, ``--keep-going`` records failures instead of
aborting.  Experiment ids match the paper's artifact numbering (see
DESIGN.md's per-experiment index).

``repro-azul run ARGS`` hands ``ARGS`` to :func:`main` unparsed, so
both commands share this one parser, and :func:`run_experiment` runs
one experiment from Python.  Every run goes through the executor.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import Iterable, List, Optional, Tuple

from repro.experiments.spec import ExperimentSpec, get_registered

#: Experiment id -> module path.  Ordered roughly as in the paper.
#: Importing a module registers its spec; ``load_spec`` resolves ids.
EXPERIMENTS = {
    "tab4": "repro.experiments.tab4",
    "fig01": "repro.experiments.fig01",
    "fig02": "repro.experiments.fig02",
    "fig03": "repro.experiments.fig03",
    "tab1": "repro.experiments.tab1",
    "fig07": "repro.experiments.fig07",
    "tab2": "repro.experiments.tab2",
    "fig09": "repro.experiments.fig09",
    "fig10": "repro.experiments.fig10",
    "fig11": "repro.experiments.fig11",
    "fig17": "repro.experiments.fig17",
    "fig20": "repro.experiments.fig20",
    "fig21": "repro.experiments.fig21",
    "fig22": "repro.experiments.fig22",
    "fig23": "repro.experiments.fig23",
    "tabD": "repro.experiments.tabD",
    "tab5": "repro.experiments.tab5",
    "fig24": "repro.experiments.fig24",
    "fig25": "repro.experiments.fig25",
    "fig26": "repro.experiments.fig26",
    "fig27": "repro.experiments.fig27",
    "fig28": "repro.experiments.fig28",
    # Beyond-the-paper studies: Sec. II background + design ablations.
    "tab_fill": "repro.experiments.tab_fill",
    "abl_row_weight": "repro.experiments.abl_row_weight",
    "abl_quantiles": "repro.experiments.abl_quantiles",
    "abl_partitioner": "repro.experiments.abl_partitioner",
    "abl_threads": "repro.experiments.abl_threads",
    "abl_buffer": "repro.experiments.abl_buffer",
    "abl_trees": "repro.experiments.abl_trees",
    "tab2_sim": "repro.experiments.tab2_sim",
    "corr_study": "repro.experiments.corr_study",
    "ord_study": "repro.experiments.ord_study",
    "abl_topology": "repro.experiments.abl_topology",
    "abl_seed": "repro.experiments.abl_seed",
    "model_validation": "repro.experiments.model_validation",
    "eff_study": "repro.experiments.eff_study",
}


def load_spec(experiment_id: str) -> ExperimentSpec:
    """Import the module behind an id and return its registered spec."""
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"choices: {', '.join(EXPERIMENTS)}"
        )
    importlib.import_module(EXPERIMENTS[experiment_id])
    return get_registered(experiment_id)


def load_specs(ids: Optional[Iterable[str]] = None) -> List[ExperimentSpec]:
    """Specs for the given ids (default: all), in runner order."""
    return [load_spec(experiment_id)
            for experiment_id in (ids or EXPERIMENTS)]


def run_experiment(experiment_id: str, *, jobs: Optional[int] = None,
                   **overrides):
    """Run one experiment by id through the executor; return its result.

    ``overrides`` are builder arguments (``matrices=[...]``); one the
    builder does not take raises ``TypeError``.  ``jobs`` sizes the
    sweep over the experiment's points.  The result is checkpointed
    like any executor run, and a failure raises the experiment's own
    exception.
    """
    from repro.experiments.executor import ExperimentFailure, execute

    spec = load_spec(experiment_id)
    spec.check_overrides(overrides)
    try:
        report = execute([spec], jobs=jobs, overrides=overrides)
    except ExperimentFailure as failure:
        error = failure.cause
    else:
        return report.outcomes[0].result
    # Raised outside the handler, so the traceback is the experiment's.
    raise error


def main(argv=None):
    parser = argparse.ArgumentParser(
        # The usage line names the console command for both entry points.
        prog="repro-azul run",
        description="Run Azul-reproduction experiments.",
    )
    parser.add_argument(
        "ids", nargs="*",
        help="experiment ids (default: all); see DESIGN.md",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list experiments (id, title, tags) and exit",
    )
    parser.add_argument(
        "--filter", action="append", default=None, metavar="TAG",
        help="only run experiments carrying TAG (repeatable: every "
             "given tag must match); tags are shown by --list",
    )
    parser.add_argument(
        "--plan", action="store_true",
        help="dry-run: print per-experiment point counts, the global "
             "dedup, predicted cache hits and the placements to compute; "
             "compute nothing",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="skip experiments whose checkpointed result is already in "
             "the artifact cache (written after each experiment)",
    )
    parser.add_argument(
        "--keep-going", action="store_true",
        help="continue past a failing experiment; exit 1 at the end if "
             "any failed",
    )
    parser.add_argument(
        "--matrices", nargs="+", default=None, metavar="NAME",
        help="override the matrix set of every experiment that takes "
             "one (others run unchanged)",
    )
    parser.add_argument(
        "--csv-dir", default=None, metavar="DIR",
        help="also write each result as DIR/<id>.csv",
    )
    parser.add_argument(
        "--cache-stats", action="store_true",
        help="print artifact-cache statistics after the runs",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the merged placement and simulation "
             "sweep (default: REPRO_JOBS if set, else min(8, CPU count); "
             "1 runs serially)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a Chrome trace (pipeline spans + simulator issue "
             "events) and write it to PATH (load at ui.perfetto.dev)",
    )
    parser.add_argument(
        "--metrics", nargs="?", const="", default=None, metavar="PATH",
        help="collect metrics (counters / per-phase timers) and write a "
             "JSON artifact (default PATH: <csv-dir>/metrics.json or "
             "./metrics.json)",
    )
    args = parser.parse_args(argv)

    specs = load_specs(args.ids or None)
    if args.filter:
        wanted = set(args.filter)
        specs = [spec for spec in specs
                 if wanted.issubset(set(spec.tags))]
    if args.list:
        for spec in specs:
            print(spec.describe())
        return 0
    if not specs:
        print("no experiments match the selection", file=sys.stderr)
        return 1
    if args.csv_dir:
        os.makedirs(args.csv_dir, exist_ok=True)
    # A malformed REPRO_JOBS raises here, before any experiment runs,
    # even when --jobs makes the sweep itself never read it.
    from repro.parallel import default_jobs

    default_jobs()

    observe = args.trace is not None or args.metrics is not None
    if not observe:
        return _run(args, specs, observe)
    import repro.obs as obs

    # An observed call collects from an empty registry and leaves none
    # behind, so each call's artifacts cover that call alone.
    obs.reset()
    obs.enable(metrics=True, tracing=args.trace is not None)
    try:
        return _run(args, specs, observe)
    finally:
        obs.disable()
        obs.reset()


def _run(args, specs, observe: bool) -> int:
    """Plan or execute ``specs`` as ``args`` ask; the exit code.

    With ``observe``, the trace / metrics artifacts are written after
    the runs.
    """
    rss_before = _peak_rss_mb() if observe else None
    overrides: dict = {}
    if args.matrices is not None:
        overrides["matrices"] = list(args.matrices)

    from repro.experiments.executor import (
        ExperimentFailure,
        execute,
        plan_experiments,
    )

    if args.plan:
        # Dry run: always survey every experiment (keep_going) so the
        # printed plan covers the whole selection.
        _, sweep = plan_experiments(
            specs, resume=args.resume, overrides=overrides,
            keep_going=True,
        )
        print(sweep.render())
        return 0

    def on_outcome(outcome):
        if outcome.status == "failed":
            print(f"[{outcome.experiment_id} FAILED: {outcome.error}]",
                  file=sys.stderr)
            return
        result = outcome.result
        print(result.render())
        if outcome.status == "resumed":
            print(f"[{outcome.experiment_id} resumed from checkpoint]")
        else:
            print(f"[{outcome.experiment_id} completed in "
                  f"{outcome.seconds:.1f}s]")
        print()
        if args.csv_dir:
            result.to_csv(
                os.path.join(args.csv_dir, f"{outcome.experiment_id}.csv")
            )

    try:
        report = execute(
            specs, jobs=args.jobs, keep_going=args.keep_going,
            resume=args.resume, overrides=overrides,
            on_outcome=on_outcome,
        )
        exit_code = report.exit_code
        if exit_code:
            failed = ", ".join(
                outcome.experiment_id for outcome in report.failures()
            )
            print(f"[{len(report.failures())} experiment(s) failed: "
                  f"{failed}]", file=sys.stderr)
    except ExperimentFailure as failure:
        print(f"[aborted: {failure}]", file=sys.stderr)
        exit_code = 1

    if observe:
        _export_observability(args, [spec.id for spec in specs],
                              rss_before)

    if args.cache_stats:
        from repro.cache import ArtifactCache
        from repro.perf import format_cache_stats

        cache = ArtifactCache.default()
        print(format_cache_stats(cache.stats, cache.inventory()))
    return exit_code


def _export_observability(args, ids, rss_before) -> None:
    """Write the trace / metrics artifacts collected during the runs.

    ``rss_before`` is :func:`_peak_rss_mb` at the start of the run.
    """
    import repro.obs as obs
    from repro.cache import ArtifactCache
    from repro.config import overrides

    extra = {
        "experiments": list(ids),
        "overrides": overrides(),
        "cache": ArtifactCache.default().stats.as_dict(),
    }
    if args.trace is not None:
        obs.write_chrome_trace(args.trace, metadata=extra)
        print(f"[trace written to {args.trace}]")
    if args.metrics is not None:
        path = args.metrics
        if not path:
            path = (os.path.join(args.csv_dir, "metrics.json")
                    if args.csv_dir else "metrics.json")
        rss = _peak_rss_mb()
        if rss is not None:
            obs.gauge("process.peak_rss_mb", rss[0])
            # A child reaped during the run, and larger than any reaped
            # before it: a --jobs worker.
            if rss[1] > rss_before[1]:
                obs.gauge("process.workers_peak_rss_mb", rss[1])
        obs.write_metrics(path, extra=extra)
        print(f"[metrics written to {path}]")


def _peak_rss_mb() -> Optional[Tuple[float, float]]:
    """Peak RSS (MB) of this process and of its largest reaped child.

    ``None`` where ``resource`` is missing.  The children's figure
    survives ``exec``: a shell's earlier children count until this
    process reaps a larger one.
    """
    try:
        import resource
    except ImportError:  # not on this platform (Windows)
        return None
    # ru_maxrss counts KiB on Linux and bytes on macOS.
    per_mb = 2**20 if sys.platform == "darwin" else 2**10
    own, children = (
        resource.getrusage(who).ru_maxrss / per_mb
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return own, children


if __name__ == "__main__":
    sys.exit(main())
