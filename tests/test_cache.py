"""Unit tests for the resilient artifact cache (:mod:`repro.cache`).

Covers the guarantees the experiment harness relies on: content
addressing, atomic publication, corruption quarantine (never crash),
LRU eviction under a byte budget, observability counters, environment
overrides, and cross-process reuse of the disk tier.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cache import (
    MISS,
    NPZ,
    PICKLE,
    ArtifactCache,
    CacheStats,
    canonical_encode,
    content_checksum,
    stable_digest,
)


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache", persist_stats=False)


def _payload_files(cache):
    """All payload files on disk (no meta/tmp/stats)."""
    return sorted(
        p for p in cache.root.rglob("*")
        if p.is_file()
        and not p.name.endswith(".meta.json")
        and not p.name.startswith(".tmp-")
        and p.name != "stats.json"
        and "quarantine" not in p.parts
    )


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
class TestKeys:
    def test_digest_is_stable_across_calls(self):
        assert stable_digest("a", 1, 2.5) == stable_digest("a", 1, 2.5)

    def test_digest_distinguishes_types(self):
        assert stable_digest(1) != stable_digest("1")
        assert stable_digest(1) != stable_digest(1.0)
        assert stable_digest(["a", "b"]) != stable_digest(["ab"])

    def test_digest_handles_containers_and_arrays(self):
        first = stable_digest({"b": 2, "a": np.arange(4)})
        second = stable_digest({"a": np.arange(4), "b": 2})
        assert first == second  # dict order canonicalised

    def test_unstable_types_are_refused(self):
        with pytest.raises(TypeError):
            stable_digest(object())

    def test_canonical_encode_none(self):
        assert canonical_encode(None) != canonical_encode("None")

    def test_content_checksum_prefix(self):
        assert content_checksum(b"abc").startswith("sha256:")


# ----------------------------------------------------------------------
# Roundtrip
# ----------------------------------------------------------------------
class TestRoundtrip:
    def test_npz_roundtrip(self, cache):
        arrays = {"x": np.arange(10), "y": np.eye(3)}
        key = cache.key("roundtrip", 1)
        cache.put("ns", key, arrays, NPZ)
        # Drop the memory tier to force a disk read.
        cache._memory.clear()
        loaded = cache.get("ns", key, NPZ)
        assert loaded is not MISS
        np.testing.assert_array_equal(loaded["x"], arrays["x"])
        np.testing.assert_array_equal(loaded["y"], arrays["y"])

    def test_pickle_roundtrip(self, cache):
        value = {"nested": [1, 2, {"k": np.float64(3.5)}]}
        key = cache.key("pkl")
        cache.put("ns", key, value, PICKLE)
        cache._memory.clear()
        assert cache.get("ns", key, PICKLE) == value

    def test_memory_tier_preserves_identity(self, cache):
        value = {"payload": np.ones(4)}
        key = cache.key("ident")
        cache.put("ns", key, value, PICKLE)
        assert cache.get("ns", key, PICKLE) is value

    def test_miss_on_absent_key(self, cache):
        assert cache.get("ns", "nope", PICKLE) is MISS

    def test_get_or_compute_runs_once(self, cache):
        calls = []

        def compute():
            calls.append(1)
            return {"v": 42}

        key = cache.key("goc")
        first = cache.get_or_compute("ns", key, compute, PICKLE)
        second = cache.get_or_compute("ns", key, compute, PICKLE)
        assert first == second == {"v": 42}
        assert len(calls) == 1

    def test_disabled_cache_is_transparent(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c", enabled=False,
                              persist_stats=False)
        key = cache.key("off")
        cache.put("ns", key, {"v": 1}, PICKLE)
        assert cache.get("ns", key, PICKLE) is MISS
        assert not (tmp_path / "c").exists()


# ----------------------------------------------------------------------
# Corruption -> quarantine -> recompute (never crash)
# ----------------------------------------------------------------------
class TestCorruption:
    @pytest.mark.parametrize("mode", ["truncate", "garbage", "empty"])
    def test_corrupt_payload_is_quarantined_and_recomputed(
            self, cache, mode):
        key = cache.key("victim", mode)
        cache.put("ns", key, {"x": np.arange(8)}, NPZ)
        cache._memory.clear()
        (payload,) = _payload_files(cache)
        raw = payload.read_bytes()
        if mode == "truncate":
            payload.write_bytes(raw[: len(raw) // 2])
        elif mode == "garbage":
            payload.write_bytes(b"this is not an npz archive")
        else:
            payload.write_bytes(b"")

        value = cache.get_or_compute(
            "ns", key, lambda: {"x": np.arange(8)}, NPZ
        )
        np.testing.assert_array_equal(value["x"], np.arange(8))
        assert cache.stats.corruptions == 1
        assert cache.stats.quarantined == 1
        quarantined = list(cache.quarantine_dir.iterdir())
        assert quarantined, "corrupt entry was not moved to quarantine"
        # The recomputed entry must be healthy again.
        cache._memory.clear()
        assert cache.get("ns", key, NPZ) is not MISS

    def test_bad_meta_is_corruption(self, cache):
        key = cache.key("meta")
        cache.put("ns", key, {"v": 1}, PICKLE)
        cache._memory.clear()
        (payload,) = _payload_files(cache)
        meta = payload.with_name(payload.name + ".meta.json")
        meta.write_text("{ not json", encoding="utf-8")
        assert cache.get("ns", key, PICKLE) is MISS
        assert cache.stats.corruptions == 1

    def test_missing_meta_is_corruption(self, cache):
        key = cache.key("nometa")
        cache.put("ns", key, {"v": 1}, PICKLE)
        cache._memory.clear()
        (payload,) = _payload_files(cache)
        payload.with_name(payload.name + ".meta.json").unlink()
        assert cache.get("ns", key, PICKLE) is MISS
        assert cache.stats.corruptions == 1

    def test_checksum_mismatch_detected(self, cache):
        key = cache.key("bitrot")
        cache.put("ns", key, {"v": list(range(100))}, PICKLE)
        cache._memory.clear()
        (payload,) = _payload_files(cache)
        raw = bytearray(payload.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # single-byte flip, size unchanged
        payload.write_bytes(bytes(raw))
        assert cache.get("ns", key, PICKLE) is MISS
        assert cache.stats.corruptions == 1

    def test_verify_reports_and_fixes(self, cache):
        good = cache.key("good")
        bad = cache.key("bad")
        cache.put("ns", good, {"v": 1}, PICKLE)
        cache.put("ns", bad, {"v": 2}, PICKLE)
        for payload in _payload_files(cache):
            if bad in payload.name:
                payload.write_bytes(b"junk")
        statuses = {r.key: r.status for r in cache.verify(fix=False)}
        assert statuses[good] == "ok"
        assert statuses[bad] == "corrupt"
        cache.verify(fix=True)
        remaining = {p.stem.split(".")[0] for p in _payload_files(cache)}
        assert bad not in remaining
        assert list(cache.quarantine_dir.iterdir())


# ----------------------------------------------------------------------
# Atomicity
# ----------------------------------------------------------------------
class TestAtomicity:
    def test_leftover_tmp_file_is_harmless_and_swept(self, cache):
        key = cache.key("atomic")
        cache.put("ns", key, {"v": 1}, PICKLE)
        stale = cache.root / "ns" / ".tmp-interrupted"
        stale.write_bytes(b"half-written")
        os.utime(stale, (0, 0))  # pretend it is ancient
        cache._memory.clear()
        assert cache.get("ns", key, PICKLE) == {"v": 1}
        assert cache.sweep_tmp(max_age_seconds=60) >= 1
        assert not stale.exists()

    def test_clear_removes_everything(self, cache):
        for i in range(3):
            cache.put("ns", cache.key("clear", i), {"v": i}, PICKLE)
        removed, freed = cache.clear()
        assert removed >= 3
        assert freed > 0
        assert cache.disk_bytes() == 0
        assert not cache._memory


# ----------------------------------------------------------------------
# Re-puts
# ----------------------------------------------------------------------
class TestRePut:
    def test_identical_put_writes_nothing(self, cache, monkeypatch):
        key = cache.key("reput")
        cache.put("ns", key, {"v": [1, 2, 3]}, PICKLE)
        (payload,) = _payload_files(cache)
        meta = payload.with_name(payload.name + ".meta.json")
        meta_bytes, meta_stat = meta.read_bytes(), meta.stat()
        os.utime(payload, (1_000_000, 1_000_000))
        cache._memory.clear()

        def no_write(*args):
            raise AssertionError("an identical put wrote a file")

        monkeypatch.setattr(cache, "_atomic_write", no_write)
        value = {"v": [1, 2, 3]}
        assert cache.put("ns", key, value, PICKLE) is value
        assert cache.stats.writes == 1
        assert meta.read_bytes() == meta_bytes
        assert meta.stat().st_mtime_ns == meta_stat.st_mtime_ns
        assert payload.stat().st_mtime > 1_000_000  # recency refreshed
        assert cache.get("ns", key, PICKLE) is value  # memory tier
        assert cache.stats.hits_memory == 1

    def test_different_bytes_rewrite(self, cache):
        key = cache.key("reput-new")
        cache.put("ns", key, {"v": 1}, PICKLE)
        cache.put("ns", key, {"v": 2}, PICKLE)
        assert cache.stats.writes == 2
        cache._memory.clear()
        assert cache.get("ns", key, PICKLE) == {"v": 2}

    @pytest.mark.parametrize("damage", [
        "meta-garbage", "meta-missing", "meta-checksum", "meta-list",
        "payload-flip", "payload-missing",
    ])
    def test_damaged_entry_is_rewritten(self, cache, damage):
        key = cache.key("reput", damage)
        value = {"v": list(range(50))}
        cache.put("ns", key, value, PICKLE)
        (payload,) = _payload_files(cache)
        meta = payload.with_name(payload.name + ".meta.json")
        if damage == "meta-garbage":
            meta.write_text("{ not json", encoding="utf-8")
        elif damage == "meta-missing":
            meta.unlink()
        elif damage == "meta-checksum":
            record = json.loads(meta.read_text(encoding="utf-8"))
            record["checksum"] = content_checksum(b"other bytes")
            meta.write_text(json.dumps(record), encoding="utf-8")
        elif damage == "meta-list":
            meta.write_text("[]", encoding="utf-8")
        elif damage == "payload-flip":
            raw = bytearray(payload.read_bytes())
            raw[len(raw) // 2] ^= 0xFF  # size and metadata unchanged
            payload.write_bytes(bytes(raw))
        else:
            payload.unlink()
        cache.put("ns", key, value, PICKLE)
        assert cache.stats.writes == 2
        cache._memory.clear()
        assert cache.get("ns", key, PICKLE) == value
        assert cache.stats.corruptions == 0


# ----------------------------------------------------------------------
# Eviction
# ----------------------------------------------------------------------
class TestEviction:
    def test_lru_eviction_respects_budget_and_recency(self, tmp_path):
        payload = {"v": "x" * 2000}
        probe = ArtifactCache(tmp_path / "probe", persist_stats=False)
        probe.put("ns", "probe", payload, PICKLE)
        entry_bytes = probe.disk_bytes()
        # Budget for ~3 entries.
        cache = ArtifactCache(tmp_path / "cache",
                              max_bytes=int(entry_bytes * 3.5),
                              persist_stats=False)
        keys = [cache.key("evict", i) for i in range(4)]
        for i, key in enumerate(keys[:3]):
            cache.put("ns", key, payload, PICKLE)
            os.utime(
                cache._payload_path("ns", key, PICKLE),
                (1_000_000 + i, 1_000_000 + i),
            )
        # Refresh entry 0 so entry 1 becomes the LRU victim.
        cache._memory.clear()
        assert cache.get("ns", keys[0], PICKLE) is not MISS
        cache.put("ns", keys[3], payload, PICKLE)
        cache._memory.clear()
        assert cache.get("ns", keys[1], PICKLE) is MISS   # evicted
        assert cache.get("ns", keys[0], PICKLE) is not MISS
        assert cache.get("ns", keys[3], PICKLE) is not MISS
        assert cache.stats.evictions >= 1
        assert cache.disk_bytes() <= cache.max_bytes


# ----------------------------------------------------------------------
# Stats & observability
# ----------------------------------------------------------------------
class TestStats:
    def test_counters(self, cache):
        key = cache.key("stats")
        assert cache.get("ns", key, PICKLE) is MISS
        cache.put("ns", key, {"v": 1}, PICKLE)
        cache.get("ns", key, PICKLE)            # memory hit
        cache._memory.clear()
        cache.get("ns", key, PICKLE)            # disk hit
        stats = cache.stats
        assert stats.misses == 1
        assert stats.writes == 1
        assert stats.hits_memory == 1
        assert stats.hits_disk == 1
        assert stats.hits == 2
        assert stats.lookups == 3
        assert 0.0 < stats.hit_rate() < 1.0

    def test_merged_and_dict_roundtrip(self):
        a = CacheStats(hits_memory=1, misses=2, writes=3)
        b = CacheStats(hits_disk=4, evictions=5)
        merged = a.merged(b)
        assert merged.hits == 5 and merged.misses == 2
        assert CacheStats.from_dict(merged.as_dict()) == merged

    def test_stats_persist_to_disk(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c", persist_stats=True)
        cache.put("ns", cache.key("p"), {"v": 1}, PICKLE)
        cache.flush_stats()
        persisted = cache.persisted_stats()
        assert persisted.writes == 1
        on_disk = json.loads(
            (cache.root / "stats.json").read_text(encoding="utf-8")
        )
        assert on_disk["writes"] == 1

    def test_inventory_shape(self, cache):
        cache.put("alpha", cache.key(1), {"v": 1}, PICKLE)
        cache.put("beta", cache.key(2), {"v": 2}, PICKLE)
        inventory = cache.inventory()
        assert set(inventory["namespaces"]) == {"alpha", "beta"}
        assert inventory["total_bytes"] > 0
        assert inventory["enabled"] is True


# ----------------------------------------------------------------------
# Environment knobs
# ----------------------------------------------------------------------
class TestEnvironment:
    def test_cache_dir_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
        cache = ArtifactCache.from_env(persist_stats=False)
        assert cache.root == tmp_path / "override"

    def test_max_bytes_override(self, monkeypatch):
        from repro.config import overrides

        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "12345")
        assert ArtifactCache.from_env(persist_stats=False).max_bytes == 12345
        assert overrides()["REPRO_CACHE_MAX_BYTES"]["effective"] == 12345

    def test_disable_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        assert ArtifactCache.from_env(persist_stats=False).enabled is False

    @pytest.mark.parametrize("raw", ["1", "yes", "0", "false", "no", "off"])
    def test_disable_flag_agrees_with_overrides(self, raw, monkeypatch):
        from repro.config import overrides

        monkeypatch.setenv("REPRO_CACHE_DISABLE", raw)
        enabled = ArtifactCache.from_env(persist_stats=False).enabled
        assert enabled is (raw in ("0", "false", "no", "off"))
        assert overrides()["REPRO_CACHE_DISABLE"]["effective"] is not enabled

    def test_malformed_max_bytes_names_the_variable(self, monkeypatch):
        from repro.config import overrides

        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "512MB")
        with pytest.raises(ValueError, match="REPRO_CACHE_MAX_BYTES"):
            ArtifactCache.from_env(persist_stats=False)
        with pytest.raises(ValueError, match="REPRO_CACHE_MAX_BYTES"):
            overrides()

    def test_default_registry_tracks_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
        first = ArtifactCache.default()
        assert ArtifactCache.default() is first
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "b"))
        second = ArtifactCache.default()
        assert second is not first
        assert second.root == tmp_path / "b"


# ----------------------------------------------------------------------
# Cross-process reuse
# ----------------------------------------------------------------------
class TestCrossProcess:
    def test_two_processes_share_the_disk_tier(self, tmp_path):
        script = r"""
import os, sys
from repro.cache import ArtifactCache, PICKLE, MISS

cache = ArtifactCache.from_env()
key = cache.key("xproc", 7)
value = cache.get("xproc", key, PICKLE)
if value is MISS:
    cache.put("xproc", key, {"answer": 42}, PICKLE)
    cache.flush_stats()
    print("WROTE")
else:
    assert value == {"answer": 42}, value
    print("READ")
"""
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(tmp_path / "shared")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            outs.append(proc.stdout.strip())
        assert outs == ["WROTE", "READ"]
