"""The one durable write: temporary → fsync → rename.

Every file the package publishes for another reader — checkpoints,
cache artifacts, spool requests and their sidecars, served ``.npz``
results, the status and Prometheus files — is written by
:func:`atomic_write`.  A leaf module: it imports nothing from
:mod:`repro`, so any layer can use it without an import cycle.
"""

from __future__ import annotations

import os
import threading

__all__ = ["atomic_write"]


def atomic_write(path: str, write, *, mode: str = "w",
                 exclusive: bool = False) -> None:
    """``write(f)`` into a temporary sibling, fsync it, then move it
    onto ``path`` in one step: a reader sees the old file or the
    complete new one, never a torn write, and the new bytes are on disk
    before the name points at them.  The parent directory is fsynced
    after the rename, so the new name survives a power cut too.
    ``exclusive`` publishes with ``os.link`` instead of ``os.replace``
    and raises :class:`FileExistsError` rather than overwrite.

    The temporary is ``<path>.<pid>-<thread id>.tmp``, so concurrent
    writers never share one; readers that scan a directory match their
    own suffix and never see it.  If ``write``, the fsync, the link or
    the rename raises, the temporary is removed and the exception
    re-raised, leaving ``path`` as it was."""
    tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(tmp, mode) as f:
            write(f)
            f.flush()
            os.fsync(f.fileno())
        if exclusive:
            os.link(tmp, path)
        else:
            os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if exclusive:
        os.unlink(tmp)
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
