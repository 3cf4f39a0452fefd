"""Tests for the :class:`ExperimentSession` facade and its cache wiring.

The acceptance scenario from the redesign: a deliberately corrupted
cache entry must cause *zero* failures — the entry is quarantined,
recomputed, and the incident shows up in ``repro-azul cache stats``.
"""

import numpy as np
import pytest

import repro
from repro import cli
from repro.cache import ArtifactCache, MISS, NPZ
from repro.config import AzulConfig
from repro.experiments.common import (
    PLACEMENT_NAMESPACE,
    ExperimentSession,
    placement_key,
)
from repro.parallel import PlacementSpec

TINY = AzulConfig(mesh_rows=4, mesh_cols=4)


class TestExports:
    def test_session_exported_from_top_level(self):
        assert repro.ExperimentSession is ExperimentSession
        assert "ExperimentSession" in repro.__all__

    def test_cache_types_exported(self):
        assert repro.ArtifactCache is ArtifactCache
        assert "ArtifactCache" in repro.__all__
        assert "CacheStats" in repro.__all__


class TestValidation:
    def test_bad_config_type(self):
        with pytest.raises(TypeError, match="AzulConfig"):
            ExperimentSession(config="8x8")

    def test_bad_scale(self):
        with pytest.raises(ValueError, match="scale"):
            ExperimentSession(TINY, scale=0)

    def test_bad_preset_with_hint(self):
        with pytest.raises(ValueError, match="spede.*speed"):
            ExperimentSession(TINY, preset="spede")

    def test_bad_matrix_name(self):
        with pytest.raises(ValueError, match="unknown matrix"):
            ExperimentSession(TINY).prepare("tmt_sim")

    def test_bad_mapper_with_hint(self):
        session = ExperimentSession(TINY)
        with pytest.raises(ValueError, match="unknown mapper.*'azul'"):
            session.placement("tmt_sym", "azool")

    def test_bad_pe_model(self):
        session = ExperimentSession(TINY)
        with pytest.raises(ValueError, match="unknown pe"):
            session.simulate("tmt_sym", pe="gpu")

    def test_errors_raised_before_any_work(self):
        """Validation is eager: no cache traffic for a bad name."""
        session = ExperimentSession(TINY)
        before = session.cache.stats.lookups
        with pytest.raises(ValueError):
            session.simulate("tmt_sym", mapper="nope")
        assert session.cache.stats.lookups == before


class TestCaching:
    def test_sessions_share_the_default_cache(self):
        first = ExperimentSession(TINY)
        second = ExperimentSession(TINY)
        assert first.cache is second.cache

    def test_placement_cross_session_disk_reuse(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        producer = ExperimentSession(TINY)
        produced = producer.placement("tmt_sym", "block")
        # A fresh cache instance simulates a different process: the
        # memory tier is empty, so the entry must come off disk.
        consumer = ExperimentSession(
            TINY, cache=ArtifactCache.from_env(persist_stats=False),
        )
        consumed = consumer.placement("tmt_sym", "block")
        assert (produced.a_tile == consumed.a_tile).all()
        assert (produced.l_tile == consumed.l_tile).all()
        assert (produced.vec_tile == consumed.vec_tile).all()
        assert consumer.cache.stats.hits_disk == 1
        assert consumer.cache.stats.misses == 0

    def test_disabled_cache_bypasses_cache(self, tmp_path):
        session = ExperimentSession(
            TINY, cache=ArtifactCache(tmp_path, enabled=False),
        )
        session.placement("tmt_sym", "block")
        assert session.cache.stats.writes == 0
        assert not any(tmp_path.iterdir())

    def test_different_config_different_simulation(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        small = ExperimentSession(TINY).simulate(
            "tmt_sym", mapper="block")
        wide = ExperimentSession(
            AzulConfig(mesh_rows=4, mesh_cols=8)
        ).simulate("tmt_sym", mapper="block")
        assert small is not wide
        assert small.total_cycles != wide.total_cycles


class TestCorruptionEndToEnd:
    def test_corrupt_placement_recovers_and_is_reported(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        session = ExperimentSession(TINY)
        good = session.placement("tmt_sym", "block")

        # Smash every placement payload on disk.
        placement_dir = session.cache.root / PLACEMENT_NAMESPACE
        smashed = 0
        for payload in placement_dir.glob("*.npz"):
            payload.write_bytes(b"corrupted beyond recognition")
            smashed += 1
        assert smashed >= 1

        # A fresh cache (cold memory tier) must hit the corruption,
        # quarantine it, and transparently recompute — zero failures.
        recovering = ExperimentSession(TINY, cache=ArtifactCache.from_env())
        recomputed = recovering.placement("tmt_sym", "block")
        assert (recomputed.a_tile == good.a_tile).all()
        stats = recovering.cache.stats
        assert stats.corruptions == smashed
        assert stats.quarantined == smashed
        assert list(recovering.cache.quarantine_dir.iterdir())

        # ... and the incident is visible through the CLI.
        recovering.cache.flush_stats()
        assert cli.main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "corruptions: 1" in out
        assert "quarantined 1" in out

        # The healed entry reads back cleanly from disk afterwards.
        healed = ArtifactCache.from_env(persist_stats=False)
        key = placement_key(PlacementSpec(
            "tmt_sym", "block", TINY.num_tiles, scale=1, preset="speed",
        ))
        assert healed.get(PLACEMENT_NAMESPACE, key, NPZ) is not MISS

    def test_cache_verify_cli_flags_corruption(self, tmp_path,
                                               monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        session = ExperimentSession(TINY)
        session.placement("tmt_sym", "block")
        assert cli.main(["cache", "verify"]) == 0
        (payload,) = (session.cache.root / PLACEMENT_NAMESPACE).glob(
            "*.npz")
        payload.write_bytes(b"junk")
        assert cli.main(["cache", "verify"]) == 1
        assert cli.main(["cache", "verify", "--fix"]) == 0
        out = capsys.readouterr().out
        assert "corrupt" in out

    def test_cache_clear_cli(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        session = ExperimentSession(TINY)
        session.placement("tmt_sym", "block")
        assert session.cache.disk_bytes() > 0
        assert cli.main(["cache", "clear"]) == 0
        assert "cleared" in capsys.readouterr().out
        assert ArtifactCache.from_env().disk_bytes() == 0


class TestRunnerIntegration:
    def test_runner_cache_stats_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.experiments import runner

        assert runner.main(["--list", "--cache-stats"]) == 0
        capsys.readouterr()
        assert runner.main(["tab4", "--cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "artifact cache" in out
