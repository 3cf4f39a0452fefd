"""Tests for :mod:`repro.parallel` (process-parallel sweep execution).

The contract under test: ``simulate_many(session, points, jobs=N)``
takes resolved points keyed by their cache keys (what the executor
passes) and returns, in point order, exactly what a serial loop of
``session.placement`` and ``session.simulate`` calls returns — through
cache hits, real worker processes, and the serial fallback after worker
failures.  Equal points share one key, so each is computed once; the
executor's merge of points across experiments is tested in
``tests/test_experiment_specs.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import parallel
from repro.cache import ArtifactCache
from repro.config import AzulConfig
from repro.experiments.common import ExperimentSession, placement_key
from repro.parallel import (
    PlacementSpec,
    SimPoint,
    default_jobs,
    resolve,
    simulate_many,
)

TINY = AzulConfig(mesh_rows=4, mesh_cols=4)
MATRIX = "tmt_sym"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def fresh_cache(monkeypatch, tmp_path):
    """A private on-disk cache for one test (parent and workers)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


def _keyed(session, points):
    """The points resolved and keyed by cache key, as the executor
    hands them to ``simulate_many``."""
    keyed = {}
    for point in points:
        resolved, key = resolve(session, point)
        keyed[key] = resolved
    return keyed


def _uncached_session():
    """A session whose disabled cache computes everything afresh."""
    return ExperimentSession(TINY, cache=ArtifactCache(enabled=False))


def _timings_equal(left, right):
    assert left.total_cycles == right.total_cycles
    for a, b in zip(left.kernel_results, right.kernel_results):
        assert a.cycles == b.cycles
        assert a.op_counts == b.op_counts
        assert a.spills == b.spills
        assert np.array_equal(a.output, b.output)


class TestSimPoint:
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
        serial = _uncached_session().simulate(MATRIX, "azul", "azul")
        session = ExperimentSession(TINY)
        points = _keyed(session, [
            SimPoint(MATRIX),
            SimPoint(MATRIX),   # duplicate: one key, computed once
            SimPoint(MATRIX, mapper="round_robin", pe="dalorex"),
        ])
        assert len(points) == 2
        stats = {}
        results = simulate_many(session, points, jobs=1, stats=stats)
        assert stats["points"] == 2
        assert stats["computed_serial"] == 2
        _timings_equal(results[0], serial)
        assert results[1].total_cycles != results[0].total_cycles

    def test_parallel_identical_to_serial(self, fresh_cache):
        points = [
            SimPoint(MATRIX),
            SimPoint(MATRIX, mapper="round_robin", pe="dalorex"),
        ]
        serial_session = _uncached_session()
        serial_stats = {}
        serial = simulate_many(
            serial_session, _keyed(serial_session, points), jobs=1,
            stats=serial_stats,
        )
        session = ExperimentSession(TINY)
        parallel_stats = {}
        fanned = simulate_many(
            session, _keyed(session, points), jobs=2, stats=parallel_stats,
        )
        assert serial_stats["computed_serial"] == 2
        assert parallel_stats["computed_parallel"] == 2
        assert parallel_stats["worker_failures"] == 0
        for a, b in zip(serial, fanned):
            _timings_equal(a, b)

    def test_cache_hits_short_circuit(self, fresh_cache):
        first = ExperimentSession(TINY)
        points = _keyed(first, [SimPoint(MATRIX)])
        warm = simulate_many(first, points, jobs=1)
        stats = {}
        second = ExperimentSession(TINY)
        cached = simulate_many(second, points, jobs=4, stats=stats)
        assert stats["cache_hits"] == 1
        assert stats["computed_parallel"] == 0
        assert stats["computed_serial"] == 0
        _timings_equal(warm[0], cached[0])

    def test_workers_populate_shared_cache(self, fresh_cache):
        """A jobs>1 sweep leaves the next session fully cached."""
        session = ExperimentSession(TINY)
        points = _keyed(session, [
            SimPoint(MATRIX),
            SimPoint(MATRIX, mapper="round_robin", pe="dalorex"),
        ])
        simulate_many(session, points, jobs=2)
        stats = {}
        simulate_many(ExperimentSession(TINY), points, jobs=2, stats=stats)
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
        results = simulate_many(
            session,
            _keyed(session, [SimPoint(MATRIX), SimPoint(MATRIX, pe="ideal")]),
            jobs=2, stats=stats,
        )
        assert stats["worker_failures"] == 2
        assert stats["computed_serial"] == 2
        reference = session.simulate(MATRIX, "azul", "azul")
        _timings_equal(results[0], reference)

    def test_run_pool_isolates_single_crash(self):
        """One bad point fails alone; the rest still compute in workers."""
        pending = [
            ("good", {"value": 3}),
            ("bad", {"value": None}),
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
        """The point's exception takes the place of its result."""
        session = ExperimentSession(TINY)
        [result] = simulate_many(
            session, _keyed(session, [SimPoint("not_a_matrix")]), jobs=1,
        )
        assert isinstance(result, ValueError)

    def test_workers_cache_counters_reach_stats_json(self, tmp_path):
        """A cold ``--jobs 2`` run persists what a ``--jobs 1`` run does."""
        persisted = []
        for jobs in ("1", "2"):
            cache = tmp_path / f"jobs{jobs}"
            subprocess.run(
                [sys.executable, "-m", "repro.experiments.runner", "fig21",
                 "--matrices", MATRIX, "offshore", "--jobs", jobs],
                env=dict(os.environ, REPRO_CACHE_DIR=str(cache),
                         PYTHONPATH=str(SRC)),
                capture_output=True, check=True,
            )
            persisted.append(
                json.loads((cache / "stats.json").read_text()))
        assert persisted[0] == persisted[1]
        entries = [p for p in cache.glob("*/*") if p.is_file()]
        assert persisted[1]["writes"] == len(entries) > 0


def _square_or_crash(key, spec):
    """Module-level worker (picklable) used by the crash-isolation test."""
    value = spec["value"]
    if value is None:
        raise RuntimeError("synthetic worker crash")
    return value * value


def _placements_equal(left, right):
    for name in ("a_tile", "l_tile", "vec_tile"):
        assert np.array_equal(getattr(left, name), getattr(right, name))


class TestPlacementPoints:
    def test_duplicates_computed_once_and_equal_direct_calls(
            self, fresh_cache):
        uncached = _uncached_session()
        direct_placement = uncached.placement(MATRIX, "azul")
        direct = uncached.simulate(MATRIX, "azul", "azul")
        session = ExperimentSession(TINY)
        points = _keyed(session, [
            PlacementSpec(MATRIX),
            PlacementSpec(MATRIX, seed=0),        # the default seed
            PlacementSpec(MATRIX, row_weight=2),  # the default, as an int
            SimPoint(MATRIX),
            SimPoint(MATRIX, seed=0),
            SimPoint(MATRIX, row_weight=2),
        ])
        assert len(points) == 2
        stats = {}
        results = simulate_many(session, points, jobs=1, stats=stats)
        assert stats["computed_serial"] == 2
        _placements_equal(results[0], direct_placement)
        _timings_equal(results[1], direct)
        # session.placement(name, "azul") keys the placement that
        # SimPoint(name) simulates.
        simulation, _ = parallel.resolve(session, SimPoint(MATRIX))
        assert parallel.resolve(session, PlacementSpec(MATRIX))[1] \
            == placement_key(simulation.placement)

    def test_unicast_activates_more_links_than_tree(self, fresh_cache):
        session = ExperimentSession(TINY)
        tree, unicast = simulate_many(session, _keyed(session, [
            SimPoint(MATRIX),
            SimPoint(MATRIX, multicast="unicast"),
        ]), jobs=1)
        assert unicast.link_activations() > tree.link_activations()

    def test_second_session_served_from_cache(self, fresh_cache):
        session = ExperimentSession(TINY)
        points = _keyed(session, [PlacementSpec(MATRIX, seed=1),
                                  SimPoint(MATRIX, seed=1)])
        first = simulate_many(session, points, jobs=1)
        stats = {}
        again = simulate_many(ExperimentSession(TINY), points, jobs=1,
                              stats=stats)
        assert stats["cache_hits"] == 2
        assert stats["computed_serial"] == stats["computed_parallel"] == 0
        _placements_equal(again[0], first[0])
        _timings_equal(again[1], first[1])

    def test_mixed_points_parallel_identical_to_serial(
            self, fresh_cache, monkeypatch, tmp_path):
        points = {
            "place": PlacementSpec(MATRIX),
            "place/seed": PlacementSpec(MATRIX, seed=2),
            "place/block": PlacementSpec(MATRIX, "block"),
            "tree": SimPoint(MATRIX),
            "unicast": SimPoint(MATRIX, multicast="unicast"),
            "seed": SimPoint(MATRIX, seed=2),
            "row_weight": SimPoint(MATRIX, row_weight=4.0),
        }
        session = ExperimentSession(TINY)
        keyed = _keyed(session, points.values())
        assert len(keyed) == len(points)
        serial_stats = {}
        serial = dict(zip(points, simulate_many(
            session, keyed, jobs=1, stats=serial_stats,
        )))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "other"))
        fanned_stats = {}
        fanned = dict(zip(points, simulate_many(
            ExperimentSession(TINY), keyed, jobs=2, stats=fanned_stats,
        )))
        assert serial_stats["computed_serial"] == len(points)
        assert fanned_stats["computed_parallel"] == len(points)
        assert fanned_stats["worker_failures"] == 0
        for key in ("place", "place/seed", "place/block"):
            _placements_equal(serial[key], fanned[key])
        for key in ("tree", "unicast", "seed", "row_weight"):
            _timings_equal(serial[key], fanned[key])
        # The seed variant really is another placement.
        assert not np.array_equal(serial["place/seed"].a_tile,
                                  serial["place"].a_tile)
