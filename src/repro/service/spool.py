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
(at-least-once execution, exactly-once disposition).  Ids are unique
across all four directories and sort in submission order, which is the
order a drain serves them in.
"""

from __future__ import annotations

import json
import os
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
        self._dirs = (self.root, self.inflight_dir, self.done_dir,
                      self.quarantine_dir)
        os.makedirs(self.root, exist_ok=True)

    def recover(self) -> None:
        """Serving-side start-up: create the lifecycle directories
        (``inflight/`` first — its appearance says a server is up) and
        sweep the ``.tmp`` files a killed predecessor left in the two
        only the server writes.  A submitter's, in the root, may be
        live: it is left alone, and never claimed."""
        for d in self._dirs[1:]:
            os.makedirs(d, exist_ok=True)
        for d in (self.inflight_dir, self.quarantine_dir):
            for f in os.listdir(d):
                if f.endswith(".tmp"):
                    os.remove(os.path.join(d, f))

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
            atomic_write(self._hint, lambda f: f.write(str(n)))
            return req_id

    def path(self, req_id: str) -> str:
        """Where :meth:`submit` published ``req_id``."""
        return os.path.join(self.root, req_id + ".json")

    # ---------------------------------------------------------- serving

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
        # sidecar first: a crash in between costs the request one
        # attempt's memory, never an orphan sidecar in inflight/
        try:
            os.remove(self._attempts_path(fname))
        except OSError:
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
