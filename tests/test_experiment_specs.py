"""Tests for the declarative experiment specs and the staged executor.

Covers the registry contract (every experiment module registers
exactly one spec whose id matches the runner table and DESIGN.md's
per-experiment index), the global point dedup across experiments,
placement points (no ``reduce`` maps a matrix, and ``--plan`` predicts
every placement and simulation a serial run computes),
checkpoint-based ``--resume``, ``--keep-going`` failure isolation,
the contract of ``run_experiment`` (the one way to run a single
experiment), and the sibling-group extension of the AST layer checker.
"""

import json
import multiprocessing
import re
import sys
from pathlib import Path

import pytest

import repro.obs as obs
from repro.config import AzulConfig
from repro.experiments import (
    EXPERIMENTS,
    executor,
    load_spec,
    load_specs,
    run_experiment,
)
from repro.experiments.common import ExperimentSession
from repro.experiments.executor import (
    ExperimentFailure,
    execute,
    plan_experiments,
)
from repro.parallel import SimPoint
from repro.experiments.spec import (
    ExperimentPlan,
    ExperimentSpec,
    register,
    registered_specs,
    unregister,
)
from repro.perf import ExperimentResult

REPO = Path(__file__).resolve().parent.parent
SMALL = ["offshore", "tmt_sym"]
TINY_CONFIG = AzulConfig(mesh_rows=4, mesh_cols=4)

#: The specs that declare their mappings (and mapping variants) as
#: placement points; ``SMALL_OVERRIDES`` shrinks every one of them.
PLACEMENT_SPECS = (
    "abl_partitioner", "abl_seed", "abl_row_weight", "abl_quantiles",
    "fig17", "abl_trees", "tabD", "fig11", "corr_study",
    "model_validation", "tab2_sim",
)
SMALL_OVERRIDES = {"matrices": SMALL, "matrix": "tmt_sym",
                   "config": TINY_CONFIG}


def _design_ids():
    """Experiment ids from DESIGN.md's per-experiment index tables."""
    text = (REPO / "DESIGN.md").read_text(encoding="utf-8")
    start = text.index("## 4. Per-experiment index")
    end = text.index("## 5", start)
    ids = set()
    for line in text[start:end].splitlines():
        match = re.match(r"\|\s*(\w+)\s*\|", line)
        if match and match.group(1) not in ("ID",):
            ids.add(match.group(1))
    return ids


def _synthetic(experiment_id, counter, fail=False):
    """Register a cheap analytic spec that counts reduce() calls."""

    @register(experiment_id, title=f"synthetic {experiment_id}",
              tags=("extension", "study", "analytic"))
    def spec():
        def reduce(sims):
            if fail:
                raise RuntimeError(f"boom in {experiment_id}")
            counter[experiment_id] = counter.get(experiment_id, 0) + 1
            result = ExperimentResult(
                experiment=experiment_id, title="synthetic",
                columns=["k", "v"],
            )
            result.add_row(k="calls", v=counter[experiment_id])
            return result

        return ExperimentPlan(session=None, reduce=reduce)

    return spec


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_every_module_registers_matching_spec(self):
        specs = load_specs()
        assert [spec.id for spec in specs] == list(EXPERIMENTS)
        for spec in specs:
            assert spec.module == EXPERIMENTS[spec.id]
            assert spec.title

    def test_registry_snapshot_complete(self):
        load_specs()
        assert set(EXPERIMENTS) <= set(registered_specs())

    def test_ids_match_design_doc(self):
        assert _design_ids() == set(EXPERIMENTS)

    def test_tag_vocabulary(self):
        for spec in load_specs():
            tags = set(spec.tags)
            assert len(tags & {"paper", "extension"}) == 1, spec.id
            assert tags & {"figure", "table", "study", "ablation"}, spec.id
            assert len(tags & {"sim", "analytic"}) == 1, spec.id
            if "sweep" in tags:
                assert "sim" in tags, spec.id

    def test_sweep_tag_matches_default_points(self):
        # "sweep" means: the builder contributes simulation points by
        # default (placement points alone do not make a sweep).
        for spec in load_specs():
            points = spec.plan().points.values()
            simulates = any(isinstance(p, SimPoint) for p in points)
            assert simulates == ("sweep" in spec.tags), spec.id

    def test_duplicate_id_from_other_module_rejected(self):
        def foreign():  # pragma: no cover - never built
            pass

        foreign.__module__ = "somewhere.else"
        register("dup_id_test", title="first")(foreign)
        try:
            with pytest.raises(ValueError, match="already registered"):
                @register("dup_id_test", title="again")
                def other():  # pragma: no cover
                    pass
        finally:
            unregister("dup_id_test")

    def test_unknown_override_rejected(self):
        spec = load_spec("fig21")
        with pytest.raises(TypeError, match="does not accept"):
            spec.plan(nonsense=1)

    def test_describe_lists_id_title_tags(self):
        spec = load_spec("fig21")
        line = spec.describe()
        assert "fig21" in line and spec.title in line
        for tag in spec.tags:
            assert tag in line


# ----------------------------------------------------------------------
# Planning / global dedup
# ----------------------------------------------------------------------
class TestPlanning:
    def test_global_dedup_across_experiments(self, fresh_cache):
        specs = [load_spec("fig21"), load_spec("fig22")]
        _, sweep = plan_experiments(
            specs,
            overrides={"matrices": SMALL, "config": TINY_CONFIG},
        )
        assert sweep.total_points == 4
        assert sweep.sum_unique == 4
        assert sweep.unique_points == 2
        assert sweep.deduplicated == 2
        assert sweep.predicted_cache_hits == 0
        assert sweep.to_compute == 2
        rendered = sweep.render()
        assert "4 points, 2 unique globally" in rendered

    def test_predicted_cache_hits_after_execute(self, fresh_cache):
        overrides = {"matrices": SMALL, "config": TINY_CONFIG}
        execute([load_spec("fig21")], overrides=overrides)
        _, sweep = plan_experiments(
            [load_spec("fig21"), load_spec("fig22")], overrides=overrides,
        )
        # fig21's two points are on disk; fig22 shares them.
        assert sweep.predicted_cache_hits == 2
        assert sweep.to_compute == 0

    def test_plan_never_simulates(self, fresh_cache):
        _, sweep = plan_experiments(
            [load_spec("fig21")],
            overrides={"matrices": SMALL, "config": TINY_CONFIG},
        )
        assert sweep.unique_points == 2
        simulations = fresh_cache / "simulations"
        assert not simulations.exists() or not any(simulations.iterdir())

    def test_placement_schema_reaches_simulation_and_checkpoint_keys(
            self, fresh_cache, monkeypatch):
        """A partitioner change must invalidate what was built on it."""
        from repro.experiments import common

        specs = [load_spec("fig21"), load_spec("abl_seed"),
                 load_spec("tabD")]

        def keys():
            entries, _ = plan_experiments(specs, overrides=SMALL_OVERRIDES)
            return (set(entries[0].point_keys.values()),
                    [entry.checkpoint_key for entry in entries])

        simulations, checkpoints = keys()
        monkeypatch.setattr(common, "PLACEMENT_SCHEMA", "bumped")
        new_simulations, new_checkpoints = keys()
        assert len(simulations) == 2
        assert not simulations & new_simulations
        for old, new in zip(checkpoints, new_checkpoints):
            assert old != new

    def test_jobs_is_stripped_from_overrides(self, fresh_cache):
        entries, _ = plan_experiments(
            [load_spec("fig21")],
            overrides={"jobs": 7, "matrices": SMALL,
                       "config": TINY_CONFIG},
        )
        assert "jobs" not in entries[0].overrides

    def test_build_failure_aborts_without_keep_going(self, fresh_cache):
        counter = {}

        @register("syn_badbuild", title="bad build",
                  tags=("extension", "study", "analytic"))
        def bad():
            raise RuntimeError("builder exploded")

        try:
            with pytest.raises(ExperimentFailure, match="syn_badbuild"):
                plan_experiments([bad])
            _, sweep = plan_experiments([bad], keep_going=True)
            assert sweep.build_failures == 1
            assert "WARNING" in sweep.render()
        finally:
            unregister("syn_badbuild")


# ----------------------------------------------------------------------
# Placement points
# ----------------------------------------------------------------------
class TestPlacementPoints:
    def test_no_reduce_maps_and_the_plan_predicts_the_run(
            self, fresh_cache, monkeypatch):
        from repro.core import azul_mapping

        specs = [load_spec(experiment_id)
                 for experiment_id in PLACEMENT_SPECS]
        _, plan = plan_experiments(specs, overrides=SMALL_OVERRIDES)
        assert plan.placement_points > 0

        def refuse(*args, **kwargs):
            raise AssertionError("a reduce computed a placement")

        finish = executor._finish

        def guarded_finish(*args, **kwargs):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(azul_mapping, "map_azul", refuse)
                patch.setattr(ExperimentSession, "placement", refuse)
                return finish(*args, **kwargs)

        monkeypatch.setattr(executor, "_finish", guarded_finish)

        def run():
            obs.reset()
            obs.enable(metrics=True, tracing=False)
            try:
                report = execute(specs, jobs=1, overrides=SMALL_OVERRIDES)
                return report, obs.snapshot()["histograms"]
            finally:
                obs.disable()
                obs.reset()

        report, timers = run()
        assert report.exit_code == 0
        assert timers["pipeline.place.seconds"]["count"] \
            == plan.placements_to_compute
        assert report.sweep_stats["computed_serial"] == (
            plan.unique_placements - plan.placement_cache_hits
            + plan.to_compute
        )
        assert report.sweep_stats["computed_parallel"] == 0

        rerun, timers = run()
        assert rerun.exit_code == 0
        assert rerun.sweep_stats["computed_serial"] == 0
        assert "pipeline.place.seconds" not in timers
        assert rerun.results().keys() == report.results().keys()


# ----------------------------------------------------------------------
# Execution: resume + keep-going
# ----------------------------------------------------------------------
class TestExecution:
    def test_resume_skips_checkpointed(self, fresh_cache):
        counter = {}
        specs = [_synthetic("syn_res_a", counter),
                 _synthetic("syn_res_b", counter)]
        try:
            first = execute(specs)
            assert first.exit_code == 0
            assert counter == {"syn_res_a": 1, "syn_res_b": 1}

            second = execute(specs, resume=True)
            assert second.exit_code == 0
            assert [o.status for o in second.outcomes] == ["resumed"] * 2
            # reduce() never re-ran; results replay from checkpoints.
            assert counter == {"syn_res_a": 1, "syn_res_b": 1}
            assert second.outcomes[0].result.rows == first.outcomes[0].result.rows
            assert second.sweep.resumed == 2
        finally:
            unregister("syn_res_a")
            unregister("syn_res_b")

    def test_resume_respects_override_fingerprint(self, fresh_cache):
        overrides = {"matrices": SMALL, "config": TINY_CONFIG}
        execute([load_spec("fig21")], overrides=overrides)
        report = execute(
            [load_spec("fig21")], resume=True,
            overrides={"matrices": ["offshore"], "config": TINY_CONFIG},
        )
        # Different matrix set -> different checkpoint -> not resumed.
        assert report.outcomes[0].status == "ok"
        assert len(report.outcomes[0].result.rows) == 1

    def test_keep_going_isolates_failures(self, fresh_cache):
        counter = {}
        specs = [_synthetic("syn_kg_bad", counter, fail=True),
                 _synthetic("syn_kg_good", counter)]
        try:
            report = execute(specs, keep_going=True)
            assert report.exit_code == 1
            statuses = {o.experiment_id: o.status for o in report.outcomes}
            assert statuses == {"syn_kg_bad": "failed",
                                "syn_kg_good": "ok"}
            assert counter == {"syn_kg_good": 1}
            (failure,) = report.failures()
            assert "boom in syn_kg_bad" in failure.error
        finally:
            unregister("syn_kg_bad")
            unregister("syn_kg_good")

    def test_failure_aborts_without_keep_going(self, fresh_cache):
        counter = {}
        specs = [_synthetic("syn_abort", counter, fail=True)]
        try:
            with pytest.raises(ExperimentFailure, match="syn_abort"):
                execute(specs)
        finally:
            unregister("syn_abort")

    @pytest.mark.parametrize("jobs,matrices", [
        (1, ["not_a_matrix"]),
        # A second, valid point makes the sweep start a process pool.
        (2, ["not_a_matrix", "tmt_sym"]),
    ])
    def test_failing_point_fails_only_its_experiment(
            self, fresh_cache, capsys, jobs, matrices):
        from repro.experiments.runner import main

        code = main(["fig21", "tab2", "--matrices", *matrices,
                     "--keep-going", "--jobs", str(jobs)])
        out, err = capsys.readouterr()
        assert code == 1
        assert "TAB2 - Iterative solvers" in out
        assert ("[fig21 FAILED: ValueError: unknown matrix "
                "'not_a_matrix'") in err
        assert "tab2 FAILED" not in err

    def test_failing_point_stops_the_run_without_keep_going(
            self, fresh_cache):
        finished = []
        with pytest.raises(ExperimentFailure) as failure:
            execute([load_spec("fig21"), load_spec("tab2")], jobs=1,
                    overrides={"matrices": ["not_a_matrix"]},
                    on_outcome=finished.append)
        assert failure.value.experiment_id == "fig21"
        assert isinstance(failure.value.cause, ValueError)
        assert [o.experiment_id for o in finished] == ["fig21"]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers must inherit the counting patch")
    @pytest.mark.parametrize("argv,points", [
        (["fig21", "--matrices", "not_a_matrix", "tmt_sym", "--jobs", "2"],
         2),
        (["fig21", "tab2", "--matrices", "not_a_matrix", "--keep-going",
          "--jobs", "1"], 1),
    ], ids=["jobs-2", "keep-going"])
    def test_failing_point_is_attempted_once(self, fresh_cache,
                                             monkeypatch, argv, points):
        """Counted in every process; the sweep counters survive it."""
        from repro.experiments.runner import main

        attempts = fresh_cache / "prepared.log"
        prepare = ExperimentSession.prepare

        def counted(self, name, *args, **kwargs):
            with open(attempts, "a", encoding="utf-8") as log:
                log.write(f"{name}\n")
            return prepare(self, name, *args, **kwargs)

        monkeypatch.setattr(ExperimentSession, "prepare", counted)
        metrics = fresh_cache / "metrics.json"
        obs.reset()
        try:
            assert main([*argv, "--metrics", str(metrics)]) == 1
        finally:
            obs.disable()
            obs.reset()
        assert attempts.read_text().split().count("not_a_matrix") == 1
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["sweep.points"] == points

    def test_cold_serial_run_reads_each_key_once(self, fresh_cache,
                                                 monkeypatch):
        """A computed point's key is read once: the sweep's miss leads
        straight to the computation, with no second lookup."""
        from collections import Counter

        from repro.cache import ArtifactCache

        reads = Counter()
        get = ArtifactCache.get

        def counted(self, namespace, key, serializer):
            reads[namespace, key] += 1
            return get(self, namespace, key, serializer)

        monkeypatch.setattr(ArtifactCache, "get", counted)
        report = execute(
            [load_spec("fig21"), load_spec("fig22")], jobs=1,
            overrides={"matrices": SMALL, "config": TINY_CONFIG},
        )
        assert report.exit_code == 0
        assert Counter(namespace for namespace, _ in reads) == {
            "placements": 2, "programs": 2, "simulations": 2,
        }
        assert set(reads.values()) == {1}, reads

    def test_shared_sweep_serves_both_experiments(self, fresh_cache):
        report = execute(
            [load_spec("fig21"), load_spec("fig22")],
            overrides={"matrices": SMALL, "config": TINY_CONFIG},
        )
        assert report.exit_code == 0
        assert report.sweep.unique_points == 2
        assert report.sweep_stats.get("points") == 2
        for outcome in report.outcomes:
            assert outcome.status == "ok"
            assert len(outcome.result.rows) == 2

    def test_equal_points_computed_once_and_fanned_back(self, fresh_cache):
        """Points that resolve to one cache key are computed once, and
        every local key naming them gets the same result object, equal
        to what direct session calls on an uncached session return."""
        from repro.cache import ArtifactCache
        from repro.parallel import PlacementSpec

        matrix = "tmt_sym"
        captured = {}

        @register("syn_equal_points", title="equal points",
                  tags=("extension", "study", "sim", "sweep"))
        def spec():
            points = {
                "place": PlacementSpec(matrix),
                "place/seed0": PlacementSpec(matrix, seed=0),
                "place/rw2": PlacementSpec(matrix, row_weight=2),
                "sim": SimPoint(matrix),
                "sim/seed0": SimPoint(matrix, seed=0),
                "sim/rw2": SimPoint(matrix, row_weight=2),
                "rr": SimPoint(matrix, mapper="round_robin", pe="dalorex"),
            }

            def reduce(sims):
                captured.update(sims)
                return ExperimentResult(
                    experiment="syn_equal_points", title="synthetic",
                    columns=["k"],
                )

            return ExperimentPlan(session=ExperimentSession(TINY_CONFIG),
                                  points=points, reduce=reduce)

        obs.reset()
        obs.enable(metrics=True, tracing=False)
        try:
            report = execute([spec], jobs=1)
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
            unregister("syn_equal_points")
        assert report.exit_code == 0
        assert (report.sweep.total_points, report.sweep.unique_points) \
            == (4, 2)
        assert (report.sweep.placement_points,
                report.sweep.unique_placements) == (3, 1)
        assert counters["exec.points.deduplicated"] == 2
        assert report.sweep_stats["points"] == 3
        assert report.sweep_stats["computed_serial"] == 3
        assert captured["place"] is captured["place/seed0"] \
            is captured["place/rw2"]
        assert captured["sim"] is captured["sim/seed0"] \
            is captured["sim/rw2"]

        uncached = ExperimentSession(
            TINY_CONFIG, cache=ArtifactCache(enabled=False),
        )
        direct_placement = uncached.placement(matrix, "azul")
        for name in ("a_tile", "l_tile", "vec_tile"):
            assert (getattr(captured["place"], name)
                    == getattr(direct_placement, name)).all()
        direct = uncached.simulate(matrix, "azul", "azul")
        assert captured["sim"].total_cycles == direct.total_cycles
        assert captured["rr"].total_cycles != direct.total_cycles


# ----------------------------------------------------------------------
# run_experiment: one experiment through the executor
# ----------------------------------------------------------------------
class TestRunExperiment:
    def test_unknown_override_names_it(self, fresh_cache):
        """The executor alone would drop it; run_experiment refuses."""
        with pytest.raises(TypeError, match="nonsense"):
            run_experiment("fig21", nonsense=1)
        assert list(fresh_cache.iterdir()) == []

    def test_raises_the_experiments_own_exception(self, fresh_cache):
        """A ``ValueError``, not the executor's ``ExperimentFailure``."""
        with pytest.raises(ValueError, match="not_a_matrix"):
            run_experiment("fig21", matrices=["not_a_matrix"],
                           config=TINY_CONFIG)

    def test_checkpoints_like_the_runner(self, fresh_cache):
        result = run_experiment("fig21", matrices=SMALL,
                                config=TINY_CONFIG)
        report = execute(
            [load_spec("fig21")], resume=True,
            overrides={"matrices": SMALL, "config": TINY_CONFIG},
        )
        (outcome,) = report.outcomes
        assert outcome.status == "resumed"
        assert outcome.result.columns == result.columns
        assert outcome.result.rows == result.rows


# ----------------------------------------------------------------------
# Layer checker: sibling groups
# ----------------------------------------------------------------------
class TestSiblingLayers:
    @pytest.fixture
    def check_layers(self):
        sys.path.insert(0, str(REPO / "tools"))
        try:
            import check_layers
            yield check_layers
        finally:
            sys.path.remove(str(REPO / "tools"))

    def test_experiment_modules_share_one_rank(self, check_layers):
        fig21_layer = check_layers._layer("repro.experiments.fig21")
        fig22_layer = check_layers._layer("repro.experiments.fig22")
        runner_layer = check_layers._layer("repro.experiments.runner")
        spec_layer = check_layers._layer("repro.experiments.spec")
        assert fig21_layer[1] == fig22_layer[1]
        assert spec_layer[1] < fig21_layer[1] < runner_layer[1]

    def test_sibling_import_flagged(self, check_layers, tmp_path):
        pkg = tmp_path / "repro" / "experiments"
        pkg.mkdir(parents=True)
        for name in ("__init__", "spec", "common", "executor"):
            (pkg / f"{name}.py").write_text("")
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "fig21.py").write_text(
            "from repro.experiments.fig22 import spec\n")
        (pkg / "fig22.py").write_text("")
        violations = check_layers.check(tmp_path)
        assert len(violations) == 1
        assert "sibling" in violations[0]

    def test_downward_import_allowed(self, check_layers, tmp_path):
        pkg = tmp_path / "repro" / "experiments"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "spec.py").write_text("")
        (pkg / "fig21.py").write_text(
            "from repro.experiments.spec import register\n")
        (pkg / "runner.py").write_text(
            "from repro.experiments.fig21 import spec\n")
        assert check_layers.check(tmp_path) == []

    def test_upward_import_flagged(self, check_layers, tmp_path):
        pkg = tmp_path / "repro" / "experiments"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "executor.py").write_text(
            "def f():\n    from repro.experiments.runner import load_spec\n")
        (pkg / "runner.py").write_text("")
        violations = check_layers.check(tmp_path)
        assert len(violations) == 1
        assert "higher" in violations[0]
