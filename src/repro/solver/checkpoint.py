"""Durable checkpoint/restart for crash recovery: the
:class:`RunCheckpoint` disk format (versioned header, CRC32-verified
state arrays, atomic write-rename) and the :class:`CheckpointManager`
that writes, prunes, and scans them.

The solvers' march frame (:mod:`repro.solver.frame`) snapshots the
leapfrog restart pair (plus any carried recurrences) every ``interval``
steps and resumes **bit-identically** from the latest valid file — the
explicit update depends only on the two previous states and the
(deterministic) forcing, so restoring them reproduces the uninterrupted
trajectory exactly.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.durable import atomic_write


#: file magic + format version; bump the version on layout changes so
#: stale files are rejected instead of misread
_MAGIC = b"RPROCKPT"
_VERSION = 1


class CheckpointCorruptError(RuntimeError):
    """A checkpoint file failed validation (bad magic/version, truncated
    payload, or CRC32 mismatch).  :meth:`CheckpointManager.latest`
    skips such files and falls back to the previous valid one."""


@dataclass
class RunCheckpoint:
    """One restart point of a time loop or outer iteration.

    ``step`` is the last completed step/iteration; ``arrays`` holds the
    named state arrays (e.g. the leapfrog restart pair); ``meta`` is a
    small JSON-able dict (``next_k``, RNG state, iteration counters...).
    """

    step: int
    arrays: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def save_checkpoint(path: str, step: int, arrays: dict,
                    meta: dict | None = None) -> int:
    """Write a :class:`RunCheckpoint` durably; returns bytes written.

    Layout: 8-byte magic, uint32 version, uint32 header length, JSON
    header (step, meta, array table with dtype/shape/nbytes/CRC32),
    then the raw array payloads back to back.  Written with
    :func:`repro.durable.atomic_write` — a crash mid-write leaves the
    previous checkpoint intact, never a half-written one under the
    live name.
    """
    entries = []
    blobs = []
    for name, arr in arrays.items():
        a = np.ascontiguousarray(arr)
        blob = a.tobytes()
        entries.append(
            {
                "name": str(name),
                "dtype": a.dtype.str,
                "shape": list(a.shape),
                "nbytes": len(blob),
                "crc32": zlib.crc32(blob) & 0xFFFFFFFF,
            }
        )
        blobs.append(blob)
    header = json.dumps(
        {"step": int(step), "meta": meta or {}, "arrays": entries},
        sort_keys=True,
    ).encode()
    chunks = [_MAGIC, struct.pack("<II", _VERSION, len(header)), header,
              *blobs]
    with telemetry.span("ckpt.save"):
        atomic_write(path, lambda f: f.writelines(chunks), mode="wb")
    nbytes = sum(len(c) for c in chunks)
    telemetry.count("resilience.checkpoints_written")
    telemetry.count("resilience.checkpoint_bytes", nbytes)
    return nbytes


def load_checkpoint(path: str) -> RunCheckpoint:
    """Read and validate a checkpoint written by :func:`save_checkpoint`.

    Raises :class:`CheckpointCorruptError` on any validation failure —
    wrong magic or version, truncated file, or a CRC32 mismatch on any
    state array."""
    with telemetry.span("ckpt.load"):
        try:
            with open(path, "rb") as f:
                magic = f.read(len(_MAGIC))
                if magic != _MAGIC:
                    raise CheckpointCorruptError(
                        f"{path}: bad magic {magic!r}"
                    )
                version, hlen = struct.unpack("<II", f.read(8))
                if version != _VERSION:
                    raise CheckpointCorruptError(
                        f"{path}: unsupported version {version}"
                    )
                try:
                    header = json.loads(f.read(hlen).decode())
                except (UnicodeDecodeError, json.JSONDecodeError) as e:
                    raise CheckpointCorruptError(
                        f"{path}: unreadable header ({e})"
                    ) from e
                arrays = {}
                for ent in header["arrays"]:
                    blob = f.read(ent["nbytes"])
                    if len(blob) != ent["nbytes"]:
                        raise CheckpointCorruptError(
                            f"{path}: truncated payload for "
                            f"{ent['name']!r}"
                        )
                    if (zlib.crc32(blob) & 0xFFFFFFFF) != ent["crc32"]:
                        raise CheckpointCorruptError(
                            f"{path}: CRC32 mismatch on {ent['name']!r}"
                        )
                    arrays[ent["name"]] = np.frombuffer(
                        blob, dtype=np.dtype(ent["dtype"])
                    ).reshape(ent["shape"]).copy()
        except OSError as e:
            raise CheckpointCorruptError(f"{path}: unreadable ({e})") from e
    return RunCheckpoint(
        step=int(header["step"]), arrays=arrays, meta=header["meta"]
    )


class CheckpointManager:
    """Writes, prunes, and scans durable checkpoints.

    Parameters
    ----------
    directory:
        Where the checkpoint files live (created on first save).
    interval:
        Snapshot cadence in steps: a time loop's
        :class:`~repro.solver.frame.MarchFrame` saves once every
        ``interval`` completed steps.  ``0`` disables periodic saves
        (the manager can still :meth:`save` explicitly).
    keep:
        Retain this many most-recent checkpoints; older files are
        pruned after each save (2+ tolerates a corrupt latest file).
    prefix:
        Filename prefix — per-rank managers in the distributed solver
        use ``rank{r}`` so one directory holds the collective set.
    """

    def __init__(self, directory: str, interval: int = 0, *,
                 keep: int = 3, prefix: str = "ckpt"):
        self.directory = str(directory)
        self.interval = int(interval)
        self.keep = max(int(keep), 1)
        self.prefix = str(prefix)

    def path_for(self, step: int) -> str:
        return os.path.join(
            self.directory, f"{self.prefix}_{int(step):010d}.ckpt"
        )

    def save(self, step: int, arrays: dict, meta: dict | None = None) -> str:
        """Durably write the checkpoint for ``step`` and prune old
        files; returns the path."""
        os.makedirs(self.directory, exist_ok=True)
        path = self.path_for(step)
        save_checkpoint(path, step, arrays, meta)
        self._prune()
        return path

    def steps(self) -> list[int]:
        """Steps with a checkpoint file on disk, ascending (existence
        only — validation happens at load time)."""
        if not os.path.isdir(self.directory):
            return []
        out = []
        suffix = ".ckpt"
        pre = self.prefix + "_"
        for name in os.listdir(self.directory):
            if name.startswith(pre) and name.endswith(suffix):
                try:
                    out.append(int(name[len(pre):-len(suffix)]))
                except ValueError:
                    continue
        return sorted(out)

    def latest(self) -> RunCheckpoint | None:
        """The most recent *valid* checkpoint, or None.  Files that
        fail validation (CRC, truncation) are skipped, so a crash that
        corrupted the newest file falls back to the one before it."""
        for step in reversed(self.steps()):
            try:
                ck = load_checkpoint(self.path_for(step))
            except CheckpointCorruptError:
                continue
            telemetry.count("resilience.restores")
            return ck
        return None

    def load_step(self, step: int) -> RunCheckpoint:
        """Load the checkpoint for exactly ``step`` (validating CRCs)."""
        ck = load_checkpoint(self.path_for(step))
        telemetry.count("resilience.restores")
        return ck

    def valid_steps(self) -> list[int]:
        """Steps whose files fully validate, ascending.  Used by the
        distributed recovery to intersect per-rank sets into the last
        *collective* checkpoint."""
        out = []
        for step in self.steps():
            try:
                load_checkpoint(self.path_for(step))
            except CheckpointCorruptError:
                continue
            out.append(step)
        return out

    def _prune(self) -> None:
        for step in self.steps()[: -self.keep]:
            try:
                os.remove(self.path_for(step))
            except OSError:
                pass


def collective_latest_step(directory: str, nranks: int,
                           interval: int = 0) -> int | None:
    """Latest step for which **every** rank's checkpoint validates —
    the restart point of a distributed recovery (a rank that died
    mid-save must not drag the others onto a step it never reached).
    Returns None when no common valid step exists."""
    common = None
    for r in range(nranks):
        mgr = CheckpointManager(directory, interval, prefix=f"rank{r}")
        steps = set(mgr.valid_steps())
        common = steps if common is None else (common & steps)
        if not common:
            return None
    return max(common)
