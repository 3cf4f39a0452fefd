"""Benchmarks for the beyond-the-paper studies: the Sec. II
direct-vs-iterative fill analysis and the design-choice ablations."""

from benchmarks.conftest import run_once
from repro.experiments import run_experiment


def test_tab_fill_direct_vs_iterative(benchmark, subset):
    result = run_once(benchmark, run_experiment, "tab_fill", matrices=subset)
    for row in result.rows:
        # Sec. II: the true factor is denser than the zero-fill pattern.
        assert row["fill_ratio"] >= 1.0
        assert row["nnz_chol"] >= row["nnz_trilA"]
    assert result.extras["max_fill_ratio"] > 1.2


def test_abl_row_weight(benchmark):
    result = run_once(benchmark, run_experiment, "abl_row_weight")
    assert len(result.rows) == 3
    # Sanity: traffic accounting present for every weight.
    for row in result.rows:
        assert row["link_activations"] > 0
        assert row["cycles"] > 0


def test_abl_quantiles(benchmark):
    result = run_once(benchmark, run_experiment, "abl_quantiles")
    # q>0 must not lose to nonzero-only balancing (Sec. IV-C's point).
    assert result.extras["best_speedup"] >= 1.0
    assert result.rows[0]["q"] == 0


def test_abl_partitioner_presets(benchmark):
    result = run_once(benchmark, run_experiment, "abl_partitioner")
    # Higher effort must not produce a worse cut.
    assert result.extras["quality_cut"] <= result.extras["speed_cut"] * 1.05
    # And costs more time (the PaToH preset tradeoff).
    assert result.extras["quality_s"] > result.extras["speed_s"]


def test_abl_threads_saturation(benchmark, subset):
    result = run_once(benchmark, run_experiment, "abl_threads",
                      matrices=subset)
    values = result.column("gmean_gflops")
    # Monotone non-decreasing up to saturation.
    assert values[-1] >= values[0]
    assert result.extras["max_gain"] >= 1.0


def test_abl_buffer_graceful_degradation(benchmark):
    result = run_once(benchmark, run_experiment, "abl_buffer")
    rows = sorted(result.rows, key=lambda r: r["buffer_entries"])
    # Smaller buffers spill at least as much and never run faster.
    assert rows[0]["spills"] >= rows[-1]["spills"]
    assert rows[0]["cycles"] >= rows[-1]["cycles"]


def test_abl_trees_fig18(benchmark, subset):
    result = run_once(benchmark, run_experiment, "abl_trees", matrices=subset)
    for row in result.rows:
        # Fig. 18: trees never use more links or cycles than unicast.
        assert row["tree_links"] <= row["unicast_links"]
        assert row["tree_cycles"] <= row["unicast_cycles"]
    assert result.extras["gmean_traffic_saving"] >= 1.0


def test_tab2_sim_solver_family(benchmark):
    result = run_once(benchmark, run_experiment, "tab2_sim")
    assert len(result.rows) == 9
    # Sec. II-B: the whole family lands in a narrow throughput band.
    assert result.extras["max_gflops"] < 2.0 * result.extras["min_gflops"]


def test_abl_topology_torus_wins(benchmark, subset):
    result = run_once(benchmark, run_experiment, "abl_topology",
                      matrices=subset)
    for row in result.rows:
        # Wraparound never hurts: torus <= mesh on cycles and links.
        assert row["torus_cycles"] <= row["mesh_cycles"]
        assert row["torus_links"] <= row["mesh_links"]
    assert result.extras["gmean_torus_advantage"] >= 1.0


def test_abl_seed_stability(benchmark):
    result = run_once(benchmark, run_experiment, "abl_seed")
    # Mapping quality must be stable: <1.5x cycle spread across seeds.
    assert result.extras["cycle_spread"] < 1.5


def test_corr_study_direction(benchmark):
    result = run_once(benchmark, run_experiment, "corr_study")
    # Block's traffic penalty exists on every matrix (azul always wins).
    assert all(row["block_vs_azul_traffic"] > 1.0 for row in result.rows)


def test_ord_study_coloring_wins_parallelism(benchmark, subset):
    result = run_once(benchmark, run_experiment, "ord_study", matrices=subset)
    for row in result.rows:
        assert row["par_colored"] >= row["par_rcm"]
        assert row["par_colored"] >= row["par_natural"]


def test_model_validation(benchmark, subset):
    result = run_once(
        benchmark, run_experiment, "model_validation", matrices=subset
    )
    # The model must track the simulator (strong correlation) even if
    # absolute cycles are optimistic (no queuing in a bound model).
    assert result.extras["correlation"] > 0.6
    assert result.extras["mean_abs_error_pct"] < 70


def test_eff_study_efficiency_gain(benchmark, subset):
    result = run_once(benchmark, run_experiment, "eff_study", matrices=subset)
    # The all-SRAM machine must win on efficiency on every matrix.
    assert all(row["efficiency_gain"] > 1.0 for row in result.rows)
    assert result.extras["gmean_efficiency_gain"] > 10.0
