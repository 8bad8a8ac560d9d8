"""Content-addressed artifact cache for the simulation service.

Production hazard traffic overwhelmingly re-runs the *same basin* with
a *new source*: the octree mesh, hanging-node constraints, assembled
operators, folded coefficients, and scatter plans depend only on
``(material model, mesh spec, fmax, backend, dtype)`` — never on the
rupture.  This module gives those immutables a stable content address
(:func:`artifact_key`) and a two-tier store (:class:`ArtifactCache`):

* an **in-memory LRU** holding the most recently used constructed
  artifacts (capacity in entries — the artifacts themselves track
  their workspace bytes for telemetry);
* an optional **on-disk tier** using the durable-checkpoint idiom of
  :mod:`repro.solver.checkpoint`: magic + JSON header + CRC32 of the
  payload, written by :func:`repro.durable.atomic_write`, so a torn
  write can never be half-loaded — a corrupt or truncated entry is
  rejected (:class:`CacheCorruptError`), removed, and rebuilt.

Keys are *content* addresses: :func:`fingerprint` canonicalizes any
spec object (dataclasses, dicts, ndarrays, scalars) into a stream fed
to blake2b, so two specs hash equal iff every field — including the
material model's arrays — is equal, and any perturbed field changes
the key.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import struct
import zlib
from collections import OrderedDict

import numpy as np

from repro import telemetry
from repro.durable import atomic_write

MAGIC = b"RPROCART"
VERSION = 1


class CacheCorruptError(RuntimeError):
    """A disk-tier entry failed validation (bad magic, header, or CRC)."""


# ------------------------------------------------------- fingerprints


def _feed(h, obj) -> None:
    """Canonical recursive serialization of ``obj`` into hash ``h``.

    Type tags precede every value so containers cannot alias scalars
    (``[1]`` vs ``1``) and floats hash by exact repr (bitwise value,
    not display rounding).
    """
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, bool):
        h.update(b"B1" if obj else b"B0")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"I" + repr(int(obj)).encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"F" + float(obj).hex().encode())
    elif isinstance(obj, str):
        h.update(b"S" + obj.encode())
    elif isinstance(obj, bytes):
        h.update(b"Y" + obj)
    elif isinstance(obj, np.ndarray):
        a = np.ascontiguousarray(obj)
        h.update(b"A" + str(a.dtype).encode() + repr(a.shape).encode())
        h.update(a.tobytes())
    elif isinstance(obj, dict):
        h.update(b"D%d" % len(obj))
        for k in sorted(obj, key=repr):
            _feed(h, k)
            _feed(h, obj[k])
    elif isinstance(obj, (list, tuple)):
        h.update(b"L%d" % len(obj))
        for v in obj:
            _feed(h, v)
    elif hasattr(obj, "__dict__"):
        # material models et al.: identity is the class plus every
        # attribute (LayeredMaterial interfaces/vs/vp/rho arrays, a
        # SyntheticBasinModel's geometry, ...)
        h.update(b"O" + type(obj).__qualname__.encode())
        _feed(h, vars(obj))
    else:
        raise TypeError(
            f"cannot fingerprint {type(obj).__name__!r}: add __dict__ "
            "state or pass a canonical (dict/array/scalar) description"
        )


def fingerprint(obj) -> str:
    """Stable hex content digest of an arbitrary spec object."""
    h = hashlib.blake2b(digest_size=20)
    _feed(h, obj)
    return h.hexdigest()


def artifact_key(**fields) -> str:
    """Content address of an artifact from its defining fields, e.g.
    ``artifact_key(material=model, L=..., fmax=..., backend="numpy",
    dtype="float64")``.  Field names participate in the hash, so
    reordering keyword arguments cannot change the key but renaming a
    field does."""
    return fingerprint(fields)


# --------------------------------------------------------- disk tier


def save_artifact(path: str, key: str, artifact) -> int:
    """Durably write ``artifact`` under content address ``key``:
    pickle payload framed by ``MAGIC`` + length-prefixed JSON header
    carrying the payload CRC32, written with
    :func:`repro.durable.atomic_write` — readers see the old entry or
    the new one, never a torn write.  Returns the payload size in
    bytes."""
    payload = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
    header = json.dumps(
        {
            "version": VERSION,
            "key": key,
            "nbytes": len(payload),
            "crc32": zlib.crc32(payload) & 0xFFFFFFFF,
        }
    ).encode()
    chunks = [MAGIC, struct.pack("<Q", len(header)), header, payload]
    atomic_write(path, lambda f: f.writelines(chunks), mode="wb")
    return len(payload)


def load_artifact(path: str, key: str | None = None):
    """Load and validate a disk-tier entry; raises
    :class:`CacheCorruptError` on any framing, key, or CRC mismatch
    (the cache treats that as a miss and removes the entry)."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise CacheCorruptError(f"unreadable cache entry {path}: {e}")
    bio = io.BytesIO(blob)
    if bio.read(len(MAGIC)) != MAGIC:
        raise CacheCorruptError(f"bad magic in {path}")
    raw = bio.read(8)
    if len(raw) != 8:
        raise CacheCorruptError(f"truncated header length in {path}")
    (hlen,) = struct.unpack("<Q", raw)
    hraw = bio.read(hlen)
    if len(hraw) != hlen:
        raise CacheCorruptError(f"truncated header in {path}")
    try:
        header = json.loads(hraw.decode())
    except ValueError as e:
        raise CacheCorruptError(f"undecodable header in {path}: {e}")
    if header.get("version") != VERSION:
        raise CacheCorruptError(
            f"cache version {header.get('version')} != {VERSION} in {path}"
        )
    if key is not None and header.get("key") != key:
        raise CacheCorruptError(
            f"key mismatch in {path}: stored {header.get('key')!r}"
        )
    payload = bio.read()
    if len(payload) != header.get("nbytes"):
        raise CacheCorruptError(
            f"payload truncated in {path}: "
            f"{len(payload)} != {header.get('nbytes')}"
        )
    if (zlib.crc32(payload) & 0xFFFFFFFF) != header.get("crc32"):
        raise CacheCorruptError(f"payload CRC mismatch in {path}")
    return pickle.loads(payload)


# ---------------------------------------------------------- the cache


class ArtifactCache:
    """Two-tier content-addressed store of constructed artifacts.

    ``get``/``put``/``get_or_build`` address entries by the hex key of
    :func:`artifact_key`.  The memory tier is a ``capacity``-entry LRU
    of live objects; with ``disk_dir`` set, ``put`` also persists a
    CRC-framed pickle and a memory miss falls back to loading (and
    re-promoting) the disk entry.  All traffic is counted — exposed by
    :meth:`stats` and mirrored into the telemetry registry under
    ``service.cache.*`` when telemetry is enabled.
    """

    def __init__(self, capacity: int = 8, *, disk_dir: str | None = None):
        if capacity < 1:
            raise ValueError("cache needs at least one slot")
        self.capacity = int(capacity)
        self.disk_dir = disk_dir
        if disk_dir is not None:
            os.makedirs(disk_dir, exist_ok=True)
        self._mem: "OrderedDict[str, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.evictions = 0
        self.corrupt_rejections = 0
        self.bytes_written = 0
        self.build_seconds = 0.0

    def _path(self, key: str) -> str:
        return os.path.join(self.disk_dir, f"artifact-{key}.bin")

    def get(self, key: str):
        """The artifact at ``key`` or None; memory first, then disk."""
        hit = self._mem.get(key)
        if hit is not None:
            self._mem.move_to_end(key)
            self.hits += 1
            telemetry.count("service.cache.hits")
            return hit
        if self.disk_dir is not None:
            path = self._path(key)
            if os.path.exists(path):
                try:
                    artifact = load_artifact(path, key)
                except CacheCorruptError:
                    # reject, remove, and rebuild — never serve a
                    # half-written or bit-rotted artifact
                    self.corrupt_rejections += 1
                    telemetry.count("service.cache.corrupt_rejections")
                    try:
                        os.remove(path)
                    except OSError:
                        pass
                else:
                    self._insert(key, artifact)
                    self.hits += 1
                    self.disk_hits += 1
                    telemetry.count("service.cache.hits")
                    telemetry.count("service.cache.disk_hits")
                    return artifact
        self.misses += 1
        telemetry.count("service.cache.misses")
        return None

    def put(self, key: str, artifact) -> None:
        """Insert (or refresh) ``key``; persists to the disk tier when
        configured.  Unpicklable artifacts stay memory-only."""
        self._insert(key, artifact)
        if self.disk_dir is not None:
            try:
                nbytes = save_artifact(self._path(key), key, artifact)
            except (pickle.PicklingError, TypeError, AttributeError):
                return
            self.bytes_written += nbytes
            telemetry.count("service.cache.bytes_written", nbytes)

    def get_or_build(self, key: str, build):
        """The memoization workhorse: returns the cached artifact or
        calls ``build()`` once, stores the result, and returns it.
        Build time is accumulated so hit/miss telemetry can report the
        seconds the cache saved."""
        artifact = self.get(key)
        if artifact is not None:
            return artifact
        import time

        with telemetry.span("service.build"):
            t0 = time.perf_counter()
            artifact = build()
            self.build_seconds += time.perf_counter() - t0
        self.put(key, artifact)
        return artifact

    def _insert(self, key: str, artifact) -> None:
        self._mem[key] = artifact
        self._mem.move_to_end(key)
        while len(self._mem) > self.capacity:
            self._mem.popitem(last=False)
            self.evictions += 1
            telemetry.count("service.cache.evictions")

    def __contains__(self, key: str) -> bool:
        return key in self._mem or (
            self.disk_dir is not None and os.path.exists(self._path(key))
        )

    def __len__(self) -> int:
        return len(self._mem)

    def clear(self, *, disk: bool = False) -> None:
        """Drop the memory tier; ``disk=True`` also unlinks persisted
        entries."""
        self._mem.clear()
        if disk and self.disk_dir is not None:
            for name in os.listdir(self.disk_dir):
                if name.startswith("artifact-") and name.endswith(".bin"):
                    try:
                        os.remove(os.path.join(self.disk_dir, name))
                    except OSError:
                        pass

    def stats(self) -> dict:
        total = self.hits + self.misses
        hit_rate = self.hits / total if total else 0.0
        # live gauge for the exporters (a ratio is a gauge, not a
        # counter: it moves both ways as traffic shifts)
        telemetry.gauge("service.cache.hit_ratio", hit_rate)
        return {
            "entries": len(self._mem),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": hit_rate,
            "disk_hits": self.disk_hits,
            "evictions": self.evictions,
            "corrupt_rejections": self.corrupt_rejections,
            "bytes_written": self.bytes_written,
            "build_seconds": self.build_seconds,
        }

    # ------------------------------------------------- per-drain scope

    #: the counter fields a drain-scoped report subtracts
    COUNTER_FIELDS = (
        "hits", "misses", "disk_hits", "evictions",
        "corrupt_rejections", "bytes_written", "build_seconds",
    )

    def counters(self) -> dict:
        """The raw cumulative counters — take one before a drain and
        pass it to :meth:`stats_since` after, so repeated serve drains
        report per-drain (not lifetime) hit ratios."""
        return {f: getattr(self, f) for f in self.COUNTER_FIELDS}

    def stats_since(self, baseline: dict) -> dict:
        """Drain-scoped view: :meth:`stats` with every counter (and
        the hit rate) computed relative to a :meth:`counters`
        baseline.  Entries/capacity stay absolute — they describe the
        cache, not the drain."""
        s = self.stats()
        for f in self.COUNTER_FIELDS:
            s[f] = s[f] - baseline.get(f, 0)
        total = s["hits"] + s["misses"]
        s["hit_rate"] = s["hits"] / total if total else 0.0
        telemetry.gauge("service.cache.drain_hit_ratio", s["hit_rate"])
        return s
