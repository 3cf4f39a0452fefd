"""Tests for :mod:`repro.parallel` (process-parallel sweep execution).

The contract under test: ``simulate_many(points, jobs=N)`` returns, in
point order, exactly what a serial loop of ``session.simulate`` calls
returns — through cache hits, in-flight dedup, real worker processes,
and the serial fallback after worker failures.
"""

import numpy as np
import pytest

from repro import parallel
from repro.config import AzulConfig
from repro.experiments.common import ExperimentSession
from repro.parallel import SimPoint, default_jobs, simulate_many

TINY = AzulConfig(mesh_rows=4, mesh_cols=4)
MATRIX = "tmt_sym"


@pytest.fixture
def fresh_cache(monkeypatch, tmp_path):
    """A private on-disk cache for one test (parent and workers)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


def _timings_equal(left, right):
    assert left.total_cycles == right.total_cycles
    for a, b in zip(left.kernel_results, right.kernel_results):
        assert a.cycles == b.cycles
        assert a.op_counts == b.op_counts
        assert a.spills == b.spills
        assert np.array_equal(a.output, b.output)


class TestSimPoint:
    def test_coercion(self):
        assert parallel._coerce(MATRIX) == SimPoint(name=MATRIX)
        assert parallel._coerce({"name": MATRIX, "check": False}) \
            == SimPoint(name=MATRIX, check=False)
        point = SimPoint(MATRIX)
        assert parallel._coerce(point) is point
        with pytest.raises(TypeError):
            parallel._coerce(42)

    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.setenv(parallel.ENV_JOBS, "3")
        assert default_jobs() == 3
        monkeypatch.setenv(parallel.ENV_JOBS, "not-a-number")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            default_jobs()
        monkeypatch.delenv(parallel.ENV_JOBS)
        assert 1 <= default_jobs() <= 8

    def test_runner_rejects_malformed_jobs_env_up_front(
            self, fresh_cache, monkeypatch, capsys):
        """``--jobs`` never reads REPRO_JOBS, yet a bad value fails first.

        Without the up-front check the runner would finish the
        experiment and fail only when ``--metrics`` reports the
        environment overrides.
        """
        from repro.experiments.runner import main

        monkeypatch.setenv(parallel.ENV_JOBS, "x")
        metrics = fresh_cache / "m.json"
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            main(["fig21", "--matrices", MATRIX, "--jobs", "1",
                  "--metrics", str(metrics)])
        assert capsys.readouterr().out == ""
        assert not metrics.exists()
        assert sorted(p.name for p in fresh_cache.iterdir()) == []


class TestSimulateMany:
    def test_matches_serial_and_dedups(self, fresh_cache):
        session = ExperimentSession(TINY)
        serial = session.simulate(MATRIX, "azul", "azul", check=False)
        points = [
            SimPoint(MATRIX, check=False),
            SimPoint(MATRIX, check=False),   # duplicate: computed once
            SimPoint(MATRIX, mapper="round_robin", pe="dalorex",
                     check=False),
        ]
        stats = {}
        results = session.simulate_many(points, jobs=1, stats=stats)
        assert stats["points"] == 3
        assert stats["unique"] == 2
        assert stats["deduplicated"] == 1
        _timings_equal(results[0], serial)
        _timings_equal(results[1], serial)
        assert results[0] is results[1]
        assert results[2].total_cycles != results[0].total_cycles

    def test_parallel_identical_to_serial(self, fresh_cache):
        points = [
            SimPoint(MATRIX, check=False),
            SimPoint(MATRIX, mapper="round_robin", pe="dalorex",
                     check=False),
        ]
        serial_stats = {}
        serial = ExperimentSession(TINY).simulate_many(
            points, jobs=1, use_cache=False, stats=serial_stats,
        )
        parallel_stats = {}
        fanned = ExperimentSession(TINY).simulate_many(
            points, jobs=2, stats=parallel_stats,
        )
        assert serial_stats["computed_serial"] == 2
        assert parallel_stats["computed_parallel"] == 2
        assert parallel_stats["worker_failures"] == 0
        for a, b in zip(serial, fanned):
            _timings_equal(a, b)

    def test_cache_hits_short_circuit(self, fresh_cache):
        points = [SimPoint(MATRIX, check=False)]
        first = ExperimentSession(TINY)
        warm = first.simulate_many(points, jobs=1)
        stats = {}
        second = ExperimentSession(TINY)
        cached = second.simulate_many(points, jobs=4, stats=stats)
        assert stats["cache_hits"] == 1
        assert stats["computed_parallel"] == 0
        assert stats["computed_serial"] == 0
        _timings_equal(warm[0], cached[0])

    def test_workers_populate_shared_cache(self, fresh_cache):
        """A jobs>1 sweep leaves the next session fully cached."""
        points = [
            SimPoint(MATRIX, check=False),
            SimPoint(MATRIX, mapper="round_robin", pe="dalorex",
                     check=False),
        ]
        ExperimentSession(TINY).simulate_many(points, jobs=2)
        stats = {}
        ExperimentSession(TINY).simulate_many(points, jobs=2, stats=stats)
        assert stats["cache_hits"] == 2
        assert stats["computed_parallel"] == 0

    def test_worker_failure_falls_back_to_serial(self, fresh_cache,
                                                 monkeypatch):
        """A crashing pool demotes points to in-process computation."""
        def broken_pool(pending, jobs, info, worker=None):
            info["worker_failures"] += len(pending)
            return {}

        monkeypatch.setattr(parallel, "_run_pool", broken_pool)
        session = ExperimentSession(TINY)
        stats = {}
        results = session.simulate_many(
            [SimPoint(MATRIX, check=False),
             SimPoint(MATRIX, pe="ideal", check=False)],
            jobs=2, stats=stats,
        )
        assert stats["worker_failures"] == 2
        assert stats["computed_serial"] == 2
        reference = session.simulate(MATRIX, "azul", "azul", check=False)
        _timings_equal(results[0], reference)

    def test_run_pool_isolates_single_crash(self):
        """One bad point fails alone; the rest still compute in workers."""
        pending = [
            ("good", [0], {"value": 3}),
            ("bad", [1], {"value": None}),
        ]
        info = {"computed_parallel": 0, "worker_failures": 0}
        computed = parallel._run_pool(
            pending, 2, info, worker=_square_or_crash,
        )
        assert computed["good"] == 9
        assert computed["bad"] is parallel._FAILED
        assert info["computed_parallel"] == 1
        assert info["worker_failures"] == 1

    def test_invalid_matrix_raises(self, fresh_cache):
        session = ExperimentSession(TINY)
        with pytest.raises(ValueError):
            session.simulate_many([SimPoint("not_a_matrix")], jobs=1)


def _square_or_crash(spec):
    """Module-level worker (picklable) used by the crash-isolation test."""
    value = spec["value"]
    if value is None:
        raise RuntimeError("synthetic worker crash")
    return value * value


class TestSimulatePlacements:
    def test_matches_direct_simulation(self, fresh_cache):
        session = ExperimentSession(TINY)
        placement = session.placement(MATRIX, "azul")
        direct = session.simulate(MATRIX, "azul", "azul", check=False)
        stats = {}
        results = session.simulate_placements(
            MATRIX, [placement, placement], check=False, jobs=1,
            stats=stats,
        )
        # Identical placements share one computation and one cache slot.
        assert stats["unique"] == 1
        assert stats["deduplicated"] == 1
        _timings_equal(results[0], direct)
        assert results[0] is results[1]

    def test_per_point_overrides(self, fresh_cache):
        session = ExperimentSession(TINY)
        placement = session.placement(MATRIX, "azul")
        tree, unicast = session.simulate_placements(placements=[
            {"name": MATRIX, "placement": placement,
             "multicast": "tree", "check": False},
            {"name": MATRIX, "placement": placement,
             "multicast": "unicast", "check": False},
        ], jobs=1)
        assert unicast.link_activations() > tree.link_activations()

    def test_results_are_cached(self, fresh_cache):
        session = ExperimentSession(TINY)
        placement = session.placement(MATRIX, "azul")
        session.simulate_placements(MATRIX, [placement], check=False,
                                    jobs=1)
        stats = {}
        again = ExperimentSession(TINY).simulate_placements(
            MATRIX, [placement], check=False, jobs=1, stats=stats,
        )
        assert stats["cache_hits"] == 1
        assert again[0].total_cycles > 0

    def test_missing_name_raises(self, fresh_cache):
        session = ExperimentSession(TINY)
        placement = session.placement(MATRIX, "azul")
        with pytest.raises(ValueError):
            session.simulate_placements(placements=[placement])
