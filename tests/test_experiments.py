"""Integration tests for the experiment harness.

Uses small matrix subsets and a 4x4-tile machine so the full pipeline
(prepare -> map -> simulate -> summarize) runs quickly; the benchmarks
exercise the full-size configurations.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import AzulConfig
from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.common import ExperimentSession

SRC = Path(__file__).resolve().parents[1] / "src"
SMALL = ["offshore", "tmt_sym"]
TINY_CONFIG = AzulConfig(mesh_rows=4, mesh_cols=4)


class TestCommon:
    def test_prepare_is_cached(self):
        session = ExperimentSession(TINY_CONFIG)
        first = session.prepare("tmt_sym")
        second = session.prepare("tmt_sym")
        assert first is second

    def test_prepare_shared_across_sessions(self):
        first = ExperimentSession(TINY_CONFIG).prepare("tmt_sym")
        second = ExperimentSession(TINY_CONFIG).prepare("tmt_sym")
        assert first is second

    def test_prepare_outputs_consistent(self):
        prepared = ExperimentSession(TINY_CONFIG).prepare("offshore")
        assert prepared.lower.n_rows == prepared.matrix.n_rows
        assert len(prepared.b) == prepared.matrix.n_rows

    def test_placement_disk_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        session = ExperimentSession(TINY_CONFIG)
        fresh = session.placement("tmt_sym", "block", 16)
        cached = session.placement("tmt_sym", "block", 16)
        assert (fresh.a_tile == cached.a_tile).all()
        assert (fresh.vec_tile == cached.vec_tile).all()

    def test_simulate_cached_per_process(self):
        session = ExperimentSession(TINY_CONFIG)
        first = session.simulate("tmt_sym", mapper="block", pe="azul")
        second = session.simulate("tmt_sym", mapper="block", pe="azul")
        assert first is second


class TestDeprecatedWrappersRemoved:
    """Removed wrappers stay removed: each job has one path."""

    def test_free_functions_removed(self):
        import repro.experiments.common as common

        for gone in ("prepare", "get_placement", "simulate",
                     "_wrapper_session", "_deprecated"):
            assert not hasattr(common, gone), (
                f"removed wrapper {gone} resurfaced in "
                f"repro.experiments.common"
            )

    def test_experiment_modules_define_no_shims(self):
        """An experiment runs only through the executor."""
        for experiment_id, name in EXPERIMENTS.items():
            module = importlib.import_module(name)
            for gone in ("run", "main"):
                assert not hasattr(module, gone), (
                    f"{name}.{gone} resurfaced; call "
                    f"run_experiment({experiment_id!r}) instead"
                )

    def test_second_paths_removed(self):
        from repro import parallel
        from repro.experiments.spec import ExperimentPlan, ExperimentSpec
        from repro.hypergraph import partitioner

        for owner, gone in ((ExperimentSpec, "run"),
                            (ExperimentPlan, "resolve"),
                            (parallel, "simulate_keyed"),
                            (ExperimentSession, "simulate_many"),
                            (partitioner, "_recurse_parallel"),
                            (partitioner, "_bisect_worker")):
            assert not hasattr(owner, gone), (
                f"removed {gone} resurfaced on {owner.__name__}"
            )

    def test_partitioner_takes_no_jobs(self):
        """Process pools live in repro.parallel, not in the mapper."""
        from repro.core.azul_mapping import map_azul
        from repro.hypergraph import partition

        for function in (partition, map_azul):
            assert "jobs" not in inspect.signature(function).parameters

    @pytest.mark.parametrize("module", [
        "repro.apps", "repro.core.mapping_io", "repro.precond.amg",
        "repro.precond.block_jacobi", "repro.hypergraph.rebalance",
        "repro.sim.full_solve", "repro.sim.functional",
        "repro.dataflow.messages",
    ])
    def test_unreached_modules_removed(self, module):
        """No experiment, runner path or CLI command reached these."""
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_unreached_names_removed(self):
        import repro
        from repro import comm, core, dataflow, hypergraph, precond, sim
        from repro.experiments import common
        from repro.sim import fabric, issue, trace

        for owner, gone in (
            (repro, "BlockJacobiPreconditioner"),
            (repro, "AMGPreconditioner"),
            (precond, "BlockJacobiPreconditioner"),
            (precond, "AMGPreconditioner"),
            (core, "save_placement"), (core, "load_placement"),
            (core, "placements_equal"),
            (hypergraph, "rebalance"),
            (dataflow, "Message"), (dataflow, "MessageKind"),
            (sim, "FullSolveResult"), (sim, "simulate_full_pcg"),
            (sim, "functional_spmv"), (sim, "functional_sptrsv"),
            (sim, "BatchedIssue"),
            (trace, "utilization_timeline"), (trace, "tile_activity"),
            (trace, "op_mix_by_tile"), (trace, "link_heatmap"),
            (trace, "idle_tail_fraction"), (trace, "export_trace_csv"),
            (issue, "VEC_THRESHOLD"),
            (issue.HorizonIssue, "_saac_batch"),
            (issue.HorizonIssue, "_plan_batch_vectorized"),
            (sim, "FabricModel"), (fabric, "FabricModel"),
            (comm, "route_path"), (comm, "hop_distance"),
            (comm, "MulticastTree"), (comm, "build_multicast_tree"),
            (comm, "ReductionTree"), (comm, "build_reduction_tree"),
            (common, "full_suite_matrices"),
        ):
            assert not hasattr(owner, gone), (
                f"removed {gone} resurfaced on {owner.__name__}"
            )


class TestRunner:
    def test_registry_covers_all_artifacts(self):
        paper_artifacts = {
            "tab4", "fig01", "fig02", "fig03", "tab1", "fig07", "tab2",
            "fig09", "fig10", "fig11", "fig17", "fig20", "fig21",
            "fig22", "fig23", "tabD", "tab5", "fig24", "fig25", "fig26",
            "fig27", "fig28",
        }
        extensions = {
            "tab_fill", "abl_row_weight", "abl_quantiles",
            "abl_partitioner", "abl_threads", "abl_buffer", "abl_trees",
            "tab2_sim", "corr_study", "ord_study", "abl_topology", "abl_seed",
            "model_validation", "eff_study",
        }
        assert set(EXPERIMENTS) == paper_artifacts | extensions

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_run_experiment_dispatches(self):
        result = run_experiment("tab2")
        assert result.experiment == "tab2"

    def test_runner_module_runs_without_runtime_warning(self):
        """``repro.experiments`` imports the runner only on first use,
        so ``-m repro.experiments.runner`` does not find it loaded."""
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.experiments.runner", "--list"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        assert "fig21" in proc.stdout

    def test_observed_runs_report_only_their_own(self, tmp_path, capsys):
        """Each observed ``main`` starts and leaves ``repro.obs`` empty."""
        from repro import obs
        from repro.experiments.runner import main

        for run in ("first", "second"):
            path = tmp_path / f"{run}.json"
            assert main(["tab4", "--metrics", str(path)]) == 0
            counters = json.loads(path.read_text())["counters"]
            assert counters["exec.completed"] == 1, run
            assert not obs.enabled()
            assert obs.snapshot()["counters"] == {}

    def test_traffic_rerun_compiles_nothing(self, tmp_path, monkeypatch,
                                            capsys):
        """fig11 counts traffic over the cached programs (CI's rerun)."""
        from repro.experiments.runner import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        argv = ["tabD", "fig11", "--matrices", *SMALL, "--jobs", "1"]
        assert main(argv) == 0
        path = tmp_path / "metrics.json"
        assert main([*argv, "--metrics", str(path)]) == 0
        metrics = json.loads(path.read_text())
        counters = metrics["counters"]
        assert counters["sweep.computed_serial"] == 0
        assert counters["compile.cache_hits"] == 8  # 4 mappers x 2
        assert "compile.build.seconds" not in metrics["histograms"]


class TestCheapExperiments:
    def test_tab2(self):
        result = run_experiment("tab2")
        assert len(result.rows) == 9

    def test_tab4(self):
        result = run_experiment("tab4", section="small")
        assert len(result.rows) == 20

    def test_tab5(self):
        result = run_experiment("tab5")
        components = {row["component"] for row in result.rows}
        assert {"PEs", "Routers", "SRAMs", "I/O", "Total"} <= components

    def test_fig01(self):
        result = run_experiment("fig01", matrices=SMALL)
        assert all(row["pct_of_peak"] < 1.0 for row in result.rows)

    def test_fig03(self):
        result = run_experiment("fig03", matrices=SMALL)
        for row in result.rows:
            assert row["sptrsv"] > 0

    def test_tab1(self):
        result = run_experiment("tab1", matrices=SMALL)
        for row in result.rows:
            assert row["spmv"] > row["sptrsv_permuted"]

    def test_fig07(self):
        result = run_experiment("fig07", matrices=SMALL)
        assert all(row["speedup"] > 1.0 for row in result.rows)


class TestSimulatedExperiments:
    def test_fig20_ordering(self):
        result = run_experiment("fig20", matrices=SMALL, config=TINY_CONFIG)
        for row in result.rows:
            assert row["azul_speedup"] > row["dalorex_speedup"]

    def test_fig11_azul_wins(self):
        result = run_experiment("fig11", matrices=SMALL, config=TINY_CONFIG)
        for row in result.rows:
            assert row["azul_norm"] <= row["round_robin_norm"]

    def test_fig21_fractions(self):
        result = run_experiment("fig21", matrices=SMALL, config=TINY_CONFIG)
        for row in result.rows:
            total = sum(
                row[k] for k in ("fmac", "add", "mul", "send", "stall")
            )
            assert abs(total - 1.0) < 1e-9

    def test_fig22_fractions(self):
        result = run_experiment("fig22", matrices=SMALL, config=TINY_CONFIG)
        for row in result.rows:
            assert abs(
                row["spmv"] + row["sptrsv"] + row["vector"] - 1.0
            ) < 1e-9

    def test_fig27_multithreading(self):
        result = run_experiment("fig27", matrices=SMALL[:1],
                                config=TINY_CONFIG)
        assert result.extras["multithreading_gain"] >= 1.0

    def test_fig17_runs(self):
        result = run_experiment("fig17", matrix="tmt_sym",
                                config=TINY_CONFIG, n_buckets=5)
        assert len(result.rows) == 5
        assert result.extras["speedup"] > 0

    def test_tab2_sim_band(self):
        result = run_experiment("tab2_sim", matrix="tmt_sym",
                                config=TINY_CONFIG)
        assert len(result.rows) == 9
        # Every solver must land within one order of magnitude.
        assert result.extras["max_gflops"] < 10 * result.extras["min_gflops"]

    def test_abl_trees_tiny(self):
        result = run_experiment("abl_trees", matrices=["tmt_sym"],
                                config=TINY_CONFIG)
        row = result.rows[0]
        assert row["unicast_links"] >= row["tree_links"]
        assert row["unicast_cycles"] >= row["tree_cycles"]


class TestCsvExport:
    def test_to_csv_roundtrip(self, tmp_path):
        import csv

        result = run_experiment("tab2")
        path = tmp_path / "tab2.csv"
        result.to_csv(path)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(result.rows)
        assert rows[0]["algorithm"] == result.rows[0]["algorithm"]

    def test_runner_csv_dir(self, tmp_path, capsys):
        from repro.experiments.runner import main

        assert main(["tab2", "--csv-dir", str(tmp_path)]) == 0
        assert (tmp_path / "tab2.csv").exists()


def test_runner_jobs_help_names_the_real_default(capsys):
    """``--jobs`` omitted means ``parallel.default_jobs()``, not serial."""
    from repro.experiments.runner import main

    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    jobs_help = " ".join(out.split("  --jobs N")[1].split("  --")[0].split())
    assert "REPRO_JOBS" in jobs_help
    assert "min(8, CPU count)" in jobs_help
    assert "default: serial" not in jobs_help
