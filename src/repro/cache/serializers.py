"""Artifact serializers: value <-> bytes codecs for the cache.

The cache stores opaque byte payloads and checksums them; serializers
are the only components that understand the payload format.  Each
serializer has a stable ``name`` (recorded in the entry's header so a
payload is never deserialized with the wrong codec) and a filename
``suffix``.

Two codecs cover the repository's artifacts:

* :class:`NpzSerializer` — mappings of numpy arrays / scalars / strings
  (placements).  Loads with ``allow_pickle=False`` so a corrupted or
  adversarial payload cannot execute code.
* :class:`PickleSerializer` — arbitrary picklable Python objects
  (simulation results).  Only used for trusted, locally produced
  artifacts; the checksum layer rejects any payload that was not
  written intact by this harness.
"""

from __future__ import annotations

import io
import pickle

import numpy as np


class Serializer:
    """Interface: ``dumps(value) -> bytes`` / ``loads(raw) -> value``."""

    #: Stable identifier recorded in entry metadata.
    name = "abstract"
    #: Payload filename suffix.
    suffix = ".bin"

    def dumps(self, value) -> bytes:
        raise NotImplementedError

    def loads(self, raw: bytes):
        raise NotImplementedError


class NpzSerializer(Serializer):
    """Dict-of-arrays codec over compressed ``.npz``."""

    name = "npz"
    suffix = ".npz"

    def dumps(self, value) -> bytes:
        if not isinstance(value, dict):
            raise TypeError("NpzSerializer stores dicts of arrays")
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **value)
        return buffer.getvalue()

    def loads(self, raw: bytes):
        with np.load(io.BytesIO(raw), allow_pickle=False) as archive:
            return {key: archive[key] for key in archive.files}


class PickleSerializer(Serializer):
    """Arbitrary-object codec over pickle (trusted artifacts only)."""

    name = "pickle"
    suffix = ".pkl"

    def dumps(self, value) -> bytes:
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)

    def loads(self, raw: bytes):
        return pickle.loads(raw)


#: Shared codec instances (serializers are stateless).
NPZ = NpzSerializer()
PICKLE = PickleSerializer()
