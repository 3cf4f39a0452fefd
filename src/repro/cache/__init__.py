"""``repro.cache`` — resilient artifact cache for expensive pipeline
products (placements, simulation results).

Quickstart::

    from repro.cache import ArtifactCache, NPZ, MISS

    cache = ArtifactCache.from_env()          # honours REPRO_CACHE_*
    key = cache.key("placement", "tmt_sym", 1, "azul", 64, "speed", "v2")
    value = cache.get("placements", key, NPZ)
    if value is MISS:
        value = compute()                     # expensive
        cache.put("placements", key, value, NPZ)

See :mod:`repro.cache.store` for the resilience guarantees (atomic
writes, checksums, quarantine-on-corruption, LRU eviction, stats).
"""

from repro.cache.keys import (
    canonical_encode,
    content_checksum,
    stable_digest,
)
from repro.cache.serializers import (
    NPZ,
    PICKLE,
    NpzSerializer,
    PickleSerializer,
    Serializer,
)
from repro.cache.store import (
    DEFAULT_MAX_BYTES,
    ENV_CACHE_DIR,
    ENV_DISABLE,
    ENV_MAX_BYTES,
    MISS,
    SCHEMA_VERSION,
    ArtifactCache,
    CacheStats,
    EntryReport,
    default_cache_root,
)

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "EntryReport",
    "MISS",
    "SCHEMA_VERSION",
    "DEFAULT_MAX_BYTES",
    "ENV_CACHE_DIR",
    "ENV_MAX_BYTES",
    "ENV_DISABLE",
    "default_cache_root",
    "stable_digest",
    "canonical_encode",
    "content_checksum",
    "Serializer",
    "NpzSerializer",
    "PickleSerializer",
    "NPZ",
    "PICKLE",
]
