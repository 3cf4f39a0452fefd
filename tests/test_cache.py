"""Unit tests for the resilient artifact cache (:mod:`repro.cache`).

Covers the guarantees the experiment harness relies on: content
addressing, atomic publication, corruption quarantine (never crash),
LRU eviction under a byte budget, observability counters, environment
overrides, and cross-process reuse of the disk tier.  Each disk entry
is one file, its header line (the entry's metadata) before its
payload; the ``meta-*`` damage kinds damage that header.
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
from repro.cache import store


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache", persist_stats=False)


def _entry_files(cache):
    """All entry files on disk (no tmp/stats/quarantine)."""
    return sorted(
        p for p in cache.root.rglob("*")
        if p.is_file()
        and not p.name.startswith(".tmp-")
        and p.name != "stats.json"
        and "quarantine" not in p.parts
    )


#: Ways to damage an entry file: its header line (``meta-*``) or its
#: payload.  Every one makes the entry unreadable.
DAMAGE = ["meta-garbage", "meta-missing", "meta-checksum", "meta-list",
          "meta-schema", "payload-flip", "payload-missing"]


def _damage(entry, kind):
    header, payload = entry.read_bytes().split(b"\n", 1)
    record = json.loads(header)
    if kind == "meta-garbage":
        header = b"{ not json"
    elif kind == "meta-missing":
        entry.write_bytes(payload)
        return
    elif kind == "meta-checksum":
        record["checksum"] = content_checksum(b"other bytes")
        header = json.dumps(record).encode()
    elif kind == "meta-list":
        header = b"[]"
    elif kind == "meta-schema":
        record["schema"] = store.SCHEMA_VERSION - 1
        header = json.dumps(record).encode()
    elif kind == "payload-flip":
        flipped = bytearray(payload)
        flipped[len(flipped) // 2] ^= 0xFF  # size and header unchanged
        payload = bytes(flipped)
    else:
        assert kind == "payload-missing", kind
        entry.unlink()
        return
    entry.write_bytes(header + b"\n" + payload)


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
        (entry,) = _entry_files(cache)
        header, raw = entry.read_bytes().split(b"\n", 1)
        if mode == "truncate":
            raw = raw[: len(raw) // 2]
        elif mode == "garbage":
            raw = b"this is not an npz archive"
        else:
            raw = b""
        entry.write_bytes(header + b"\n" + raw)

        assert cache.get("ns", key, NPZ) is MISS
        cache.put("ns", key, {"x": np.arange(8)}, NPZ)
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
        (entry,) = _entry_files(cache)
        _damage(entry, "meta-garbage")
        assert cache.get("ns", key, PICKLE) is MISS
        assert cache.stats.corruptions == 1

    def test_missing_meta_is_corruption(self, cache):
        key = cache.key("nometa")
        cache.put("ns", key, {"v": 1}, PICKLE)
        cache._memory.clear()
        (entry,) = _entry_files(cache)
        _damage(entry, "meta-missing")
        assert cache.get("ns", key, PICKLE) is MISS
        assert cache.stats.corruptions == 1

    def test_checksum_mismatch_detected(self, cache):
        key = cache.key("bitrot")
        cache.put("ns", key, {"v": list(range(100))}, PICKLE)
        cache._memory.clear()
        (entry,) = _entry_files(cache)
        _damage(entry, "payload-flip")
        assert cache.get("ns", key, PICKLE) is MISS
        assert cache.stats.corruptions == 1

    def test_verify_reports_and_fixes(self, cache):
        good = cache.key("good")
        bad = cache.key("bad")
        cache.put("ns", good, {"v": 1}, PICKLE)
        cache.put("ns", bad, {"v": 2}, PICKLE)
        for entry in _entry_files(cache):
            if bad in entry.name:
                entry.write_bytes(b"junk")
        statuses = {r.key: r.status for r in cache.verify(fix=False)}
        assert statuses[good] == "ok"
        assert statuses[bad] == "corrupt"
        cache.verify(fix=True)
        remaining = {p.stem for p in _entry_files(cache)}
        assert bad not in remaining
        assert list(cache.quarantine_dir.iterdir())

    def test_verify_marks_what_get_quarantines(self, cache):
        """Over every damage kind, and a codec failure under an intact
        header, ``verify`` and ``get`` apply one rule."""
        for kind in ["intact", "codec", *DAMAGE]:
            cache.put("ns", kind, {"v": kind}, PICKLE)
            entry = cache._entry_path("ns", kind, PICKLE)
            if kind == "codec":
                garbage = b"not a pickle"
                header = {"schema": store.SCHEMA_VERSION,
                          "serializer": PICKLE.name, "size": len(garbage),
                          "checksum": content_checksum(garbage)}
                entry.write_bytes(json.dumps(header).encode() + b"\n"
                                  + garbage)
            elif kind != "intact":
                _damage(entry, kind)
        corrupt = {r.key for r in cache.verify() if r.status == "corrupt"}
        cache._memory.clear()
        quarantined = set()
        for kind in ["intact", "codec", *DAMAGE]:
            before = cache.stats.corruptions
            cache.get("ns", kind, PICKLE)
            if cache.stats.corruptions > before:
                quarantined.add(kind)
        assert corrupt == quarantined
        assert corrupt == {"codec", *DAMAGE} - {"payload-missing"}

    def test_schema_2_entry_is_recomputed(self, cache):
        """A payload with a ``.meta.json`` sidecar (schema 2) is a miss."""
        key = cache.key("schema-2")
        raw = PICKLE.dumps({"v": "old"})
        payload = cache._entry_path("ns", key, PICKLE)
        payload.parent.mkdir(parents=True)
        payload.write_bytes(raw)
        sidecar = payload.with_name(payload.name + ".meta.json")
        sidecar.write_text(json.dumps({
            "schema": 2, "key": key, "namespace": "ns",
            "serializer": PICKLE.name, "size": len(raw),
            "checksum": content_checksum(raw), "created": 0.0,
        }), encoding="utf-8")

        assert cache.get("ns", key, PICKLE) is MISS
        assert cache.stats.quarantined == 1
        cache.put("ns", key, {"v": "new"}, PICKLE)
        cache._memory.clear()
        assert cache.get("ns", key, PICKLE) == {"v": "new"}
        # The sidecar is a file no serializer writes, until removed.
        statuses = {r.status for r in cache.verify(fix=True)}
        assert statuses == {"ok", "corrupt"}
        assert not sidecar.exists()
        assert {r.status for r in cache.verify()} == {"ok"}


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
        (entry,) = _entry_files(cache)
        stored = entry.read_bytes()
        os.utime(entry, (1_000_000, 1_000_000))
        cache._memory.clear()

        def no_write(*args):
            raise AssertionError("an identical put wrote a file")

        monkeypatch.setattr(cache, "_atomic_write", no_write)
        value = {"v": [1, 2, 3]}
        assert cache.put("ns", key, value, PICKLE) is value
        assert cache.stats.writes == 1
        assert entry.read_bytes() == stored
        assert entry.stat().st_mtime > 1_000_000  # recency refreshed
        assert cache.get("ns", key, PICKLE) is value  # memory tier
        assert cache.stats.hits_memory == 1

    def test_different_bytes_rewrite(self, cache):
        key = cache.key("reput-new")
        cache.put("ns", key, {"v": 1}, PICKLE)
        cache.put("ns", key, {"v": 2}, PICKLE)
        assert cache.stats.writes == 2
        cache._memory.clear()
        assert cache.get("ns", key, PICKLE) == {"v": 2}

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_damaged_entry_is_rewritten(self, cache, damage):
        key = cache.key("reput", damage)
        value = {"v": list(range(50))}
        cache.put("ns", key, value, PICKLE)
        (entry,) = _entry_files(cache)
        _damage(entry, damage)
        cache.put("ns", key, value, PICKLE)
        assert cache.stats.writes == 2
        cache._memory.clear()
        assert cache.get("ns", key, PICKLE) == value
        assert cache.stats.corruptions == 0

    @pytest.mark.parametrize("crash", ["before", "after"])
    def test_interrupted_reput_leaves_a_readable_entry(
            self, cache, monkeypatch, crash):
        """A crash at the ``os.replace`` publishing a re-put, before or
        after it takes effect, leaves the old or the new value."""
        key = cache.key("interrupted", crash)
        cache.put("ns", key, {"v": "old"}, PICKLE)
        replace = os.replace

        def crashing_replace(source, destination):
            if crash == "after":
                replace(source, destination)
            raise KeyboardInterrupt("crash at os.replace")

        with monkeypatch.context() as patch:
            patch.setattr(store.os, "replace", crashing_replace)
            with pytest.raises(KeyboardInterrupt):
                cache.put("ns", key, {"v": "new"}, PICKLE)
        cache._memory.clear()
        expected = {"v": "old" if crash == "before" else "new"}
        assert cache.get("ns", key, PICKLE) == expected
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
                cache._entry_path("ns", key, PICKLE),
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

    def test_put_sweeps_stale_tmp_and_evicts_ties_in_path_order(
            self, tmp_path):
        payload = {"v": "x" * 2000}
        probe = ArtifactCache(tmp_path / "probe", persist_stats=False)
        probe.put("ns", "probe", payload, PICKLE)
        cache = ArtifactCache(tmp_path / "cache",
                              max_bytes=int(probe.disk_bytes() * 3.5),
                              persist_stats=False)
        # Written out of path order, then given one mtime.
        for ns, key in (("b", "k1"), ("a", "k2"), ("a", "k0")):
            cache.put(ns, key, payload, PICKLE)
            os.utime(cache._entry_path(ns, key, PICKLE),
                     (1_000_000, 1_000_000))
        stale = [cache.root / "a" / ".tmp-stale",
                 cache.root / "quarantine" / ".tmp-stale"]
        for path in stale:
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(b"half-written")
            os.utime(path, (0, 0))
        fresh = cache.root / "b" / ".tmp-fresh"
        fresh.write_bytes(b"in flight")
        cache.put("c", "new", payload, PICKLE)
        assert not any(path.exists() for path in stale)
        assert fresh.exists()
        cache._memory.clear()
        assert cache.get("a", "k0", PICKLE) is MISS  # first in path order
        for ns, key in (("a", "k2"), ("b", "k1"), ("c", "new")):
            assert cache.get(ns, key, PICKLE) is not MISS


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
