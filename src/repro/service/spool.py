"""The spool directory protocol between ``repro submit`` and ``repro
serve``.

A request is one ``req-NNNNNN.json`` file that lives in exactly one of
four directories, and every transition is one atomic rename::

    <spool>/             pending   (published by Spool.submit)
    <spool>/inflight/    claimed   (+ a ``.attempts`` sidecar per file)
    <spool>/done/        served    (its result .npz is already in place)
    <spool>/quarantine/  given up  (+ a ``.report.json`` saying why)

so a process killed at any instant leaves each request in one place,
and a restarted server replays whatever it finds in ``inflight/``
(at-least-once execution, exactly-once disposition).  A request's
``.attempts`` sidecar retires with it into ``done/`` or
``quarantine/``, so the attempt count stays on record.  Ids are unique
across all four directories and sort in submission order, which is the
order a drain serves them in.

A request served on its first attempt frees no disk block: each of
its writes and renames goes to a new name (see
:func:`repro.durable.atomic_write`), and the advisory ``next-id`` hint
is rewritten in place.

``<spool>/doorbell`` is a FIFO the serving side creates.  A submit
rings it (one byte, non-blocking, after the publish) and an idle
server waits on it, so a request wakes the server when it is
published; the server's ``poll`` timeout is only the fallback for a
ring that never came (a submitter killed before it rang, a file
system with no FIFOs).  A ring is never lost to a busy server: the
byte stays in the pipe until the next idle wait drains it, and that
wait then returns at once and the server claims again.  It is not a
request: it is never listed, claimed or removed.
"""

from __future__ import annotations

import json
import os
import select
import stat
import time

from repro.durable import atomic_write

__all__ = ["Spool"]


def _is_request(fname: str) -> bool:
    return fname.startswith("req-") and fname.endswith(".json")


class Spool:
    """One spool directory.  ``repro submit`` only needs the root;
    the serving side calls :meth:`recover` first."""

    def __init__(self, root: str):
        self.root = str(root)
        self.inflight_dir = os.path.join(self.root, "inflight")
        self.done_dir = os.path.join(self.root, "done")
        self.quarantine_dir = os.path.join(self.root, "quarantine")
        self._hint = os.path.join(self.root, "next-id")
        self._bell = os.path.join(self.root, "doorbell")
        #: the serving side's (read, keep-alive write) doorbell fds
        self._bell_fds = None
        self._dirs = (self.root, self.inflight_dir, self.done_dir,
                      self.quarantine_dir)
        os.makedirs(self.root, exist_ok=True)

    def recover(self) -> None:
        """Serving-side start-up: create the lifecycle directories
        (``inflight/`` first — its appearance says a server is up),
        sweep the ``.tmp`` files a killed predecessor left in the two
        only the server writes, and move back a sidecar it retired
        ahead of its request (killed between :meth:`_retire`'s two
        renames), so the replay keeps its count.  A submitter's
        ``.tmp``, in the root, may be live: it is left alone, and never
        claimed.  It also opens the doorbell (see :meth:`wait`) before
        the first claim, so no ring after that claim is missed."""
        for d in self._dirs[1:]:
            os.makedirs(d, exist_ok=True)
        self._open_doorbell()
        for d in (self.inflight_dir, self.quarantine_dir):
            for f in os.listdir(d):
                if f.endswith(".tmp"):
                    os.remove(os.path.join(d, f))
        for fname in self.inflight():
            for d in self._dirs[2:]:
                ahead = os.path.join(d, fname + ".attempts")
                if os.path.exists(ahead):
                    os.replace(ahead, self._attempts_path(fname))

    # ------------------------------------------------------- submitting

    def _first_candidate(self) -> int:
        """Where the id probe starts: the advisory ``next-id`` hint the
        last submitter left, so the common path lists nothing; without
        a readable one, the count of what all four directories hold
        (ids are never reused: an id names its output file).  A stale
        hint only costs probes — :meth:`submit` decides by exclusive
        publish, not by this."""
        try:
            with open(self._hint) as f:
                return max(int(f.read()), 0)
        except (OSError, ValueError):
            return sum(
                _is_request(f)
                for d in self._dirs if os.path.isdir(d)
                for f in os.listdir(d)
            )

    def submit(self, request: dict) -> str:
        """Publish ``request`` (plus its ``"id"``) as a pending spool
        file; returns the id.  The publish is exclusive: two submitters
        that pick one id cannot both keep it — the loser probes on."""
        n = self._first_candidate()
        while True:
            req_id = f"req-{n:06d}"
            n += 1
            if any(os.path.exists(os.path.join(d, req_id + ".json"))
                   for d in self._dirs):
                continue
            body = {"id": req_id, **request}
            try:
                atomic_write(
                    self.path(req_id),
                    lambda f: json.dump(body, f, indent=2),
                    exclusive=True,
                )
            except FileExistsError:
                continue
            self._write_hint(n)
            self.ring()
            return req_id

    def _write_hint(self, n: int) -> None:
        """Rewrite ``next-id`` in place.  Replacing a non-empty file
        frees its data block, which costs tens of ms on some file
        systems, on every submit; the hint is advisory (a torn or lost
        one only moves where the probe starts), so it needs neither a
        temporary nor an fsync."""
        data = str(n).encode()
        fd = os.open(self._hint, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            os.pwrite(fd, data, 0)
            os.ftruncate(fd, len(data))
        finally:
            os.close(fd)

    def ring(self) -> None:
        """Wake a server waiting on the doorbell.  Never blocks and
        never raises: no FIFO (no server yet, or no FIFOs on this file
        system), no reader (``ENXIO``) or a full pipe (``EAGAIN``: a
        wake-up is already pending) all leave the request to be found
        by the next claim."""
        try:
            fd = os.open(self._bell, os.O_WRONLY | os.O_NONBLOCK)
        except OSError:
            return
        try:
            os.write(fd, b"\0")
        except OSError:
            pass
        finally:
            os.close(fd)

    def path(self, req_id: str) -> str:
        """Where :meth:`submit` published ``req_id``."""
        return os.path.join(self.root, req_id + ".json")

    # ---------------------------------------------------------- serving

    def _open_doorbell(self) -> None:
        """Create the doorbell FIFO if it is missing and open it for
        reading, plus one write end of its own so the reader never sees
        end-of-file (``select`` would then spin).  Where ``mkfifo``
        fails, or ``doorbell`` is not a FIFO, there is no doorbell and
        :meth:`wait` sleeps."""
        if self._bell_fds is not None:
            return
        try:
            os.mkfifo(self._bell)
        except FileExistsError:
            pass
        except OSError:
            return
        fd = os.open(self._bell, os.O_RDONLY | os.O_NONBLOCK)
        if not stat.S_ISFIFO(os.fstat(fd).st_mode):
            os.close(fd)
            return
        self._bell_fds = (fd, os.open(self._bell, os.O_WRONLY | os.O_NONBLOCK))

    def wait(self, timeout: float) -> None:
        """The idle wait: return when the doorbell rings or after
        ``timeout`` seconds, whichever is first, with the pipe drained
        (the caller claims next, so a ring drained here is answered by
        that claim).  Without a doorbell this is ``time.sleep``."""
        if self._bell_fds is None:
            time.sleep(timeout)
            return
        fd = self._bell_fds[0]
        if select.select([fd], [], [], timeout)[0]:
            os.read(fd, 1 << 16)  # a default pipe holds 64 KiB

    def close(self) -> None:
        """Close the doorbell fds :meth:`recover` opened; idempotent."""
        fds, self._bell_fds = self._bell_fds, None
        for fd in fds or ():
            os.close(fd)

    __del__ = close

    def pending(self) -> list[str]:
        """File names of the unclaimed requests, oldest id first."""
        return sorted(f for f in os.listdir(self.root) if _is_request(f))

    def claim(self) -> None:
        """Move every pending request into ``inflight/`` — from that
        rename on it is journalled and any restart replays it."""
        for fname in self.pending():
            os.replace(
                os.path.join(self.root, fname),
                os.path.join(self.inflight_dir, fname),
            )

    def inflight(self) -> list[str]:
        """File names of the claimed requests, oldest id first."""
        return sorted(
            f for f in os.listdir(self.inflight_dir) if _is_request(f)
        )

    def load(self, fname: str) -> dict:
        with open(os.path.join(self.inflight_dir, fname)) as f:
            return json.load(f)

    def _attempts_path(self, fname: str) -> str:
        return os.path.join(self.inflight_dir, fname + ".attempts")

    def attempts(self, fname: str) -> int:
        """Drain attempts ``fname`` has been through (0 if none)."""
        try:
            with open(self._attempts_path(fname)) as f:
                return int(f.read().strip() or 0)
        except (OSError, ValueError):
            return 0

    def bump_attempts(self, fname: str) -> int:
        n = self.attempts(fname) + 1
        atomic_write(self._attempts_path(fname), lambda f: f.write(str(n)))
        return n

    def _retire(self, fname: str, dest_dir: str) -> None:
        # the sidecar moves with its request (a rename to a new name
        # frees nothing) and first: a crash in between leaves no orphan
        # in inflight/, and recover() moves it back
        try:
            os.replace(self._attempts_path(fname),
                       os.path.join(dest_dir, fname + ".attempts"))
        except FileNotFoundError:
            pass
        src = os.path.join(self.inflight_dir, fname)
        if os.path.exists(src):
            os.replace(src, os.path.join(dest_dir, fname))

    def complete(self, fname: str) -> None:
        """Retire a served request to ``done/`` (call it only after
        its result is durably in place: ``serve`` writes the ``.npz``
        with :func:`repro.durable.atomic_write`, which syncs the bytes
        to disk before the rename publishes them, so ``done/`` never
        points at a torn or empty result)."""
        self._retire(fname, self.done_dir)

    def quarantine(self, fname: str, report: dict) -> None:
        """Move an inflight request to ``quarantine/`` beside a
        failure report: it leaves the drain loop for good."""
        self._retire(fname, self.quarantine_dir)
        report = {"file": fname, "ts": time.time(), **report}
        atomic_write(
            os.path.join(
                self.quarantine_dir, fname[: -len(".json")] + ".report.json"
            ),
            lambda f: json.dump(report, f, indent=2),
        )
