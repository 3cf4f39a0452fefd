"""Resilient on-disk + in-memory artifact cache.

Azul's mappings are expensive (paper Sec. VI-D) and are amortized
across runs; this module is the durability layer that makes that
amortization safe at sweep scale:

* **Content-addressed, versioned entries.**  Keys are stable digests of
  the inputs (:mod:`repro.cache.keys`); every entry carries a metadata
  sidecar recording a sha256 checksum, payload size, codec name, and
  schema version.
* **Atomic writes.**  Payload and metadata are written to temp files in
  the cache directory and published with :func:`os.replace`; readers
  never observe a half-written entry, and a crash mid-write leaves only
  a ``.tmp-*`` file that is swept opportunistically.  Storing the bytes
  an intact entry already holds (a warm run re-checkpointing its
  results) writes nothing.
* **Quarantine, never crash.**  Any load failure — truncated payload,
  garbage bytes, checksum mismatch, missing/invalid metadata, codec
  error — moves the entry into ``quarantine/`` and reports a miss so
  the caller transparently recomputes.  A corrupted cache can cost
  time, never correctness or an aborted experiment.
* **Two tiers.**  A per-process LRU of deserialized objects (identity
  preserving: repeated hits return the *same* object) in front of the
  shared on-disk tier.
* **Size-capped LRU eviction.**  The disk tier is bounded
  (``REPRO_CACHE_MAX_BYTES``); least-recently-used entries are evicted
  after each write.  Hits refresh entry mtimes, so recency survives
  process restarts.
* **Observability.**  Hit/miss/write/evict/corrupt counters, persisted
  cumulatively to ``stats.json`` so ``repro-azul cache stats`` can
  report across processes.

Environment knobs
-----------------
``REPRO_CACHE_DIR``
    Cache root (default: the repository-level ``.cache/``).
``REPRO_CACHE_MAX_BYTES``
    Disk-tier budget in bytes (default 512 MiB).
``REPRO_CACHE_DISABLE``
    Any non-empty value other than ``0``/``false`` disables both tiers.
"""

from __future__ import annotations

import atexit
import json
import os
import tempfile
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Tuple

import repro.obs as obs
from repro.cache.keys import content_checksum, stable_digest
from repro.cache.serializers import Serializer

#: Schema version of the on-disk entry layout.  Bump on incompatible
#: changes; entries with a different schema are treated as misses.
SCHEMA_VERSION = 2

#: Sentinel returned by :meth:`ArtifactCache.get` on a miss, so that
#: ``None`` remains a cacheable value.
MISS = object()

META_SUFFIX = ".meta.json"
TMP_PREFIX = ".tmp-"
QUARANTINE_DIRNAME = "quarantine"
STATS_FILENAME = "stats.json"

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_MAX_BYTES = "REPRO_CACHE_MAX_BYTES"
ENV_DISABLE = "REPRO_CACHE_DISABLE"

DEFAULT_MAX_BYTES = 512 * 1024 * 1024
DEFAULT_MEMORY_ENTRIES = 256

#: Leftover temp files older than this are swept during writes.
TMP_SWEEP_AGE_SECONDS = 3600.0

#: Counter flush cadence for the persisted stats file (corruption and
#: eviction events flush immediately regardless).
_FLUSH_EVERY = 32


def default_cache_root() -> Path:
    """Repository-level ``.cache/`` (next to ``src/``)."""
    return Path(__file__).resolve().parents[3] / ".cache"


def env_truthy(value: Optional[str]) -> bool:
    """Truthiness of a boolean environment setting.

    Unset, empty, ``0``, ``false``, ``no`` and ``off`` (any case) are
    false; every other value is true.
    """
    if value is None:
        return False
    return str(value).strip().lower() not in ("", "0", "false", "no", "off")


def parse_max_bytes(raw: Optional[str]) -> int:
    """Disk budget from a ``REPRO_CACHE_MAX_BYTES`` value.

    Unset or empty means :data:`DEFAULT_MAX_BYTES`; anything else must
    be an integer byte count.
    """
    if not raw:
        return DEFAULT_MAX_BYTES
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"{ENV_MAX_BYTES} must be an integer byte count, got {raw!r}"
        ) from None


def _check_meta(meta, serializer: Serializer, raw: bytes,
                checksum: str) -> None:
    """Raise ``ValueError`` unless ``meta`` records ``raw`` intact.

    The one rule for an intact entry: metadata is a JSON object of this
    cache schema and ``serializer`` whose size and checksum (``raw``'s,
    passed in) match the payload bytes.
    """
    if not isinstance(meta, dict):
        raise ValueError(f"metadata is a {type(meta).__name__}, not an object")
    if meta.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"schema {meta.get('schema')!r} != {SCHEMA_VERSION}"
        )
    if meta.get("serializer") != serializer.name:
        raise ValueError(
            f"serializer {meta.get('serializer')!r} != {serializer.name!r}"
        )
    if meta.get("size") != len(raw):
        raise ValueError(f"size {len(raw)} != recorded {meta.get('size')!r}")
    if meta.get("checksum") != checksum:
        raise ValueError("checksum mismatch")


@dataclass
class CacheStats:
    """Counters of one :class:`ArtifactCache` (or a merged view)."""

    hits_memory: int = 0
    hits_disk: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0
    corruptions: int = 0
    quarantined: int = 0

    @property
    def hits(self) -> int:
        """Total hits across both tiers."""
        return self.hits_memory + self.hits_disk

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Fraction of lookups served from either tier."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def merged(self, other: "CacheStats") -> "CacheStats":
        """Element-wise sum (used to fold persisted + live counters)."""
        return CacheStats(**{
            f.name: getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)
        })

    @classmethod
    def from_dict(cls, data: dict) -> "CacheStats":
        known = {f.name for f in fields(cls)}
        return cls(**{
            k: int(v) for k, v in dict(data or {}).items() if k in known
        })


@dataclass(frozen=True)
class EntryReport:
    """One entry's state as seen by :meth:`ArtifactCache.verify`."""

    namespace: str
    key: str
    status: str  # "ok" | "corrupt" | "orphan"
    size: int = 0
    detail: str = ""


_DEFAULT_CACHES: dict = {}
_DEFAULT_LOCK = threading.Lock()


class ArtifactCache:
    """Two-tier (memory + disk) resilient artifact store.

    Parameters
    ----------
    root:
        Cache directory; created lazily on first write.
    max_bytes:
        Disk-tier budget; LRU entries beyond it are evicted.
    memory_entries:
        Per-process object-tier capacity (entry count).
    enabled:
        ``False`` turns every lookup into a miss and every write into a
        no-op (the ``REPRO_CACHE_DISABLE`` escape hatch).
    persist_stats:
        Accumulate counters into ``<root>/stats.json`` so observability
        spans processes.
    """

    def __init__(self, root=None, *, max_bytes: int = DEFAULT_MAX_BYTES,
                 memory_entries: int = DEFAULT_MEMORY_ENTRIES,
                 enabled: bool = True, persist_stats: bool = True):
        self.root = Path(root) if root is not None else default_cache_root()
        self.max_bytes = int(max_bytes)
        self.memory_entries = int(memory_entries)
        self.enabled = bool(enabled)
        self.persist_stats = bool(persist_stats)
        self.stats = CacheStats()
        self._memory: OrderedDict = OrderedDict()
        self._lock = threading.RLock()
        self._unflushed = CacheStats()
        self._unflushed_events = 0
        self._atexit_registered = False

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls, root=None, **kwargs) -> "ArtifactCache":
        """Build a cache honouring the ``REPRO_CACHE_*`` environment."""
        if root is None:
            override = os.environ.get(ENV_CACHE_DIR)
            root = Path(override) if override else default_cache_root()
        if "max_bytes" not in kwargs:
            kwargs["max_bytes"] = parse_max_bytes(
                os.environ.get(ENV_MAX_BYTES)
            )
        if "enabled" not in kwargs:
            kwargs["enabled"] = not env_truthy(os.environ.get(ENV_DISABLE))
        return cls(root, **kwargs)

    @classmethod
    def default(cls) -> "ArtifactCache":
        """Process-wide shared cache for the current environment.

        Keyed by the ``REPRO_CACHE_*`` fingerprint, so monkeypatching
        the environment (tests do) transparently yields a fresh
        instance while normal runs share one memory tier.
        """
        fingerprint = (
            os.environ.get(ENV_CACHE_DIR),
            os.environ.get(ENV_MAX_BYTES),
            os.environ.get(ENV_DISABLE),
        )
        with _DEFAULT_LOCK:
            cache = _DEFAULT_CACHES.get(fingerprint)
            if cache is None:
                cache = cls.from_env()
                _DEFAULT_CACHES[fingerprint] = cache
            return cache

    @staticmethod
    def key(*parts) -> str:
        """Stable content-addressed key for ``parts``."""
        return stable_digest(*parts)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _namespace_dir(self, namespace: str) -> Path:
        if not namespace or "/" in namespace or namespace.startswith("."):
            raise ValueError(f"invalid cache namespace {namespace!r}")
        return self.root / namespace

    def _payload_path(self, namespace, key, serializer: Serializer) -> Path:
        return self._namespace_dir(namespace) / f"{key}{serializer.suffix}"

    @staticmethod
    def _meta_path(payload: Path) -> Path:
        return payload.with_name(payload.name + META_SUFFIX)

    @property
    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIRNAME

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, namespace: str, key: str, serializer: Serializer):
        """Fetch an entry; returns :data:`MISS` when absent/corrupt."""
        if not self.enabled:
            return MISS
        with self._lock:
            mem_key = (namespace, key)
            if mem_key in self._memory:
                self._memory.move_to_end(mem_key)
                self._count("hits_memory")
                return self._memory[mem_key]
            value = self._disk_get(namespace, key, serializer)
            if value is MISS:
                self._count("misses")
                return MISS
            self._memory_put(mem_key, value)
            self._count("hits_disk")
            return value

    def _disk_get(self, namespace: str, key: str, serializer: Serializer):
        payload = self._payload_path(namespace, key, serializer)
        if not payload.exists():
            return MISS
        meta_path = self._meta_path(payload)
        try:
            raw = payload.read_bytes()
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            _check_meta(meta, serializer, raw, content_checksum(raw))
            value = serializer.loads(raw)
        except Exception as exc:  # noqa: BLE001 — resilience by design
            self._quarantine(payload, meta_path, repr(exc))
            return MISS
        self._touch(payload)
        return value

    def put(self, namespace: str, key: str, value, serializer: Serializer):
        """Store ``value`` atomically; returns the value for chaining.

        When an intact entry already holds the same bytes, nothing is
        written: the entry's mtime and the memory tier are refreshed,
        and no write is counted.
        """
        if not self.enabled:
            return value
        raw = serializer.dumps(value)
        checksum = content_checksum(raw)
        with self._lock:
            payload = self._payload_path(namespace, key, serializer)
            if self._stored(payload, serializer, raw, checksum):
                self._touch(payload)
                self._memory_put((namespace, key), value)
                return value
            payload.parent.mkdir(parents=True, exist_ok=True)
            meta = {
                "schema": SCHEMA_VERSION,
                "key": key,
                "namespace": namespace,
                "serializer": serializer.name,
                "size": len(raw),
                "checksum": checksum,
                "created": time.time(),
            }
            self._atomic_write(payload, raw)
            self._atomic_write(
                self._meta_path(payload),
                json.dumps(meta, sort_keys=True).encode("utf-8"),
            )
            self._memory_put((namespace, key), value)
            self._count("writes")
            entries, _ = self._scan(time.time() - TMP_SWEEP_AGE_SECONDS)
            self._evict_over_budget(entries, protect=payload)
        return value

    def _stored(self, payload: Path, serializer: Serializer, raw: bytes,
                checksum: str) -> bool:
        """Whether ``payload`` and its metadata already record ``raw``."""
        try:
            meta = json.loads(
                self._meta_path(payload).read_text(encoding="utf-8")
            )
            _check_meta(meta, serializer, raw, checksum)
            return payload.read_bytes() == raw
        except (OSError, ValueError):
            return False

    def contains(self, namespace: str, key: str,
                 serializer: Serializer) -> bool:
        """Cheap presence probe: would :meth:`get` plausibly hit?

        Checks the memory tier and on-disk payload *existence* only —
        no deserialization, no checksum verification, and no counter
        updates, so executors can *predict* cache hits (``--plan``
        dry-runs) without paying for or perturbing real lookups.  A
        ``True`` may still turn into a miss later if the entry is
        corrupt; a ``False`` is always a real miss.
        """
        if not self.enabled:
            return False
        with self._lock:
            if (namespace, key) in self._memory:
                return True
        return self._payload_path(namespace, key, serializer).exists()

    def get_or_compute(self, namespace: str, key: str, compute,
                       serializer: Serializer):
        """Fetch, or compute + store on a miss.  Never raises for cache
        reasons: corruption quarantines the entry and recomputes."""
        value = self.get(namespace, key, serializer)
        if value is not MISS:
            return value
        value = compute()
        self.put(namespace, key, value, serializer)
        return value

    def _memory_put(self, mem_key, value):
        self._memory[mem_key] = value
        self._memory.move_to_end(mem_key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    # ------------------------------------------------------------------
    # Atomicity / resilience internals
    # ------------------------------------------------------------------
    def _atomic_write(self, destination: Path, raw: bytes):
        """Publish bytes via tmp-file + ``os.replace`` (same dir/fs)."""
        handle = tempfile.NamedTemporaryFile(
            dir=destination.parent,
            prefix=TMP_PREFIX,
            suffix=".part",
            delete=False,
        )
        try:
            with handle:
                handle.write(raw)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(handle.name, destination)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

    def _quarantine(self, payload: Path, meta_path: Path, reason: str):
        """Move a damaged entry aside; never raises."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        stamp = f"{int(time.time() * 1000):x}-{uuid.uuid4().hex[:6]}"
        moved = False
        for path in (payload, meta_path):
            if not path.exists():
                continue
            target = self.quarantine_dir / f"{stamp}-{path.name}"
            try:
                os.replace(path, target)
                moved = True
            except OSError:
                try:  # last resort: do not let the entry be re-read
                    path.unlink()
                except OSError:
                    pass
        self._memory.pop(self._memory_key_for(payload), None)
        self._count("corruptions", flush=True)
        if moved:
            self._count("quarantined", flush=True)

    @staticmethod
    def _memory_key_for(payload: Path):
        return (payload.parent.name, payload.stem)

    @staticmethod
    def _touch(payload: Path):
        try:
            os.utime(payload, None)
        except OSError:
            pass

    def sweep_tmp(self, max_age_seconds: float = TMP_SWEEP_AGE_SECONDS) -> int:
        """Remove stale ``.tmp-*`` droppings from interrupted writes."""
        return self._scan(time.time() - max_age_seconds)[1]

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _scan(self, tmp_cutoff: Optional[float] = None) -> Tuple[list, int]:
        """One ``os.scandir`` pass over the disk tier.

        Returns ``(entries, removed)``: a ``(payload path, bytes, mtime)``
        tuple per disk entry, in path order, and how many temp files
        were removed.  With ``tmp_cutoff``, every ``.tmp-*`` file of a
        cache subdirectory last modified at or before that time is
        removed on the way.
        """
        entries: list = []
        removed = 0
        try:
            with os.scandir(self.root) as listing:
                directories = sorted((d for d in listing if d.is_dir()),
                                     key=lambda d: d.name)
        except OSError:  # no cache directory yet
            return entries, removed
        for directory in directories:
            try:
                with os.scandir(directory.path) as listing:
                    files = sorted(listing, key=lambda f: f.name)
            except OSError:
                continue
            quarantine = directory.name == QUARANTINE_DIRNAME
            payloads, meta_bytes = [], {}
            for item in files:
                name = item.name
                try:
                    if name.startswith(TMP_PREFIX):
                        if (tmp_cutoff is not None
                                and item.stat().st_mtime <= tmp_cutoff):
                            os.unlink(item.path)
                            removed += 1
                    elif quarantine:
                        continue
                    elif name.endswith(META_SUFFIX):
                        meta_bytes[name] = item.stat().st_size
                    elif item.is_file():
                        payloads.append((item, item.stat()))
                except OSError:
                    continue  # removed meanwhile: nothing to count
            for item, stat in payloads:
                # No metadata: the payload alone counts.
                meta = meta_bytes.get(item.name + META_SUFFIX, 0)
                entries.append((item.path, stat.st_size + meta,
                                stat.st_mtime))
        return entries, removed

    def _iter_entries(self):
        """Yield ``(payload, meta_path, bytes, mtime)`` per disk entry."""
        for path, size, mtime in self._scan()[0]:
            payload = Path(path)
            yield payload, self._meta_path(payload), size, mtime

    def disk_bytes(self) -> int:
        """Total bytes of live entries (payloads + metadata)."""
        return sum(size for _, size, _ in self._scan()[0])

    def _evict_over_budget(self, entries: list, protect: Path):
        """Evict the least recently used ``entries`` (from :meth:`_scan`)
        until the disk tier fits the budget, never ``protect``."""
        total = sum(size for _, size, _ in entries)
        for path, size, _ in sorted(entries, key=lambda e: e[2]):
            if total <= self.max_bytes:
                break
            if path == str(protect):
                continue  # never evict the entry just written
            for name in (path, path + META_SUFFIX):
                try:
                    os.unlink(name)
                except OSError:
                    pass
            self._memory.pop(self._memory_key_for(Path(path)), None)
            total -= size
            self._count("evictions", flush=True)

    # ------------------------------------------------------------------
    # Maintenance: verify / clear / inventory
    # ------------------------------------------------------------------
    def verify(self, fix: bool = False) -> list:
        """Checksum every disk entry; optionally quarantine bad ones.

        Returns :class:`EntryReport` rows.  ``orphan`` marks a payload
        without readable metadata (e.g. a legacy pre-v2 entry);
        ``corrupt`` marks checksum/size/schema failures.
        """
        from repro.cache.serializers import serializer_by_name

        reports = []
        with self._lock:
            for payload, meta_path, size, _ in list(self._iter_entries()):
                namespace = payload.parent.name
                key = payload.stem
                status, detail = "ok", ""
                try:
                    meta = json.loads(meta_path.read_text(encoding="utf-8"))
                except (OSError, ValueError):
                    status, detail = "orphan", "missing or unreadable metadata"
                else:
                    try:
                        raw = payload.read_bytes()
                        if meta.get("schema") != SCHEMA_VERSION:
                            raise ValueError(
                                f"schema {meta.get('schema')!r}"
                            )
                        if meta.get("size") != len(raw):
                            raise ValueError("size mismatch")
                        if meta.get("checksum") != content_checksum(raw):
                            raise ValueError("checksum mismatch")
                        serializer_by_name(
                            meta.get("serializer", "")
                        ).loads(raw)
                    except Exception as exc:  # noqa: BLE001
                        status, detail = "corrupt", repr(exc)
                reports.append(EntryReport(namespace, key, status, size,
                                           detail))
                if status != "ok" and fix:
                    self._quarantine(payload, meta_path, detail)
        return reports

    def clear(self) -> tuple:
        """Delete every entry, quarantined file, temp dropping, and the
        persisted stats.  Returns ``(files_removed, bytes_freed)``."""
        removed, freed = 0, 0
        with self._lock:
            if self.root.exists():
                targets = [
                    p for p in self.root.rglob("*")
                    if p.is_file() and p.name != STATS_FILENAME
                ]
                for path in targets:
                    try:
                        freed += path.stat().st_size
                        path.unlink()
                        removed += 1
                    except OSError:
                        continue
                for directory in sorted(
                    (p for p in self.root.rglob("*") if p.is_dir()),
                    reverse=True,
                ):
                    try:
                        directory.rmdir()
                    except OSError:
                        pass
                stats_file = self.root / STATS_FILENAME
                if stats_file.exists():
                    try:
                        freed += stats_file.stat().st_size
                        stats_file.unlink()
                        removed += 1
                    except OSError:
                        pass
            self._memory.clear()
            self._unflushed = CacheStats()
            self._unflushed_events = 0
        return removed, freed

    def inventory(self) -> dict:
        """Per-namespace ``{entries, bytes}`` plus quarantine/tmp info."""
        namespaces: dict = {}
        for payload, _, size, _ in self._iter_entries():
            bucket = namespaces.setdefault(
                payload.parent.name, {"entries": 0, "bytes": 0}
            )
            bucket["entries"] += 1
            bucket["bytes"] += size
        quarantined = 0
        if self.quarantine_dir.exists():
            quarantined = sum(
                1 for p in self.quarantine_dir.iterdir() if p.is_file()
            )
        tmp_files = (
            len(list(self.root.glob(f"*/{TMP_PREFIX}*")))
            if self.root.exists() else 0
        )
        return {
            "root": str(self.root),
            "enabled": self.enabled,
            "max_bytes": self.max_bytes,
            "total_bytes": sum(b["bytes"] for b in namespaces.values()),
            "namespaces": namespaces,
            "quarantined_files": quarantined,
            "tmp_files": tmp_files,
        }

    # ------------------------------------------------------------------
    # Stats accounting / persistence
    # ------------------------------------------------------------------
    def _count(self, counter: str, flush: bool = False):
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        # Mirror into the observability registry (no-op when disabled)
        # so metrics artifacts report the same counters stats.json
        # accumulates.
        obs.counter(f"cache.{counter}")
        if not self.persist_stats:
            return
        setattr(self._unflushed, counter,
                getattr(self._unflushed, counter) + 1)
        self._unflushed_events += 1
        if not self._atexit_registered:
            atexit.register(self.flush_stats)
            self._atexit_registered = True
        if flush or self._unflushed_events >= _FLUSH_EVERY:
            self.flush_stats()

    def _stats_path(self) -> Path:
        return self.root / STATS_FILENAME

    def flush_stats(self):
        """Merge unflushed counters into ``<root>/stats.json``."""
        if not self.persist_stats:
            return
        with self._lock:
            if self._unflushed_events == 0:
                return
            delta = self._unflushed
            self._unflushed = CacheStats()
            self._unflushed_events = 0
            try:
                persisted = self.persisted_stats()
                merged = persisted.merged(delta)
                self.root.mkdir(parents=True, exist_ok=True)
                self._atomic_write(
                    self._stats_path(),
                    json.dumps(merged.as_dict(), sort_keys=True,
                               indent=2).encode("utf-8"),
                )
            except OSError:
                pass  # stats are best-effort; never fail the caller

    def persisted_stats(self) -> CacheStats:
        """Cumulative counters from ``stats.json`` (zeros if absent)."""
        try:
            data = json.loads(self._stats_path().read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return CacheStats()
        return CacheStats.from_dict(data)
