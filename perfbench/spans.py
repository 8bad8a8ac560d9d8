"""Spans recorded by the benchmark itself, around its calls into each
layer.  Kept in memory; written as JSON lines when the run ends.

A span is ``{id, name, start, end, parent, workload, op}``; ``op`` is
the pass number or request id the span belongs to.  A layer's *self
time* is its duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op=None):
        """Time the enclosed call; nests under the span open around it."""
        if not self.enabled:
            yield
            return
        sid = self._open(name, time.perf_counter(), op)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid]["end"] = time.perf_counter()

    def add(self, name: str, start: float, end: float, *, parent=None,
            op=None) -> int | None:
        """Record an interval measured elsewhere (a request's life is
        known only once its ``.npz`` shows up); returns its id so
        children can name it."""
        if not self.enabled:
            return None
        sid = self._open(name, start, op, parent)
        self.spans[sid]["end"] = end
        return sid

    def _open(self, name, start, op, parent=None) -> int:
        if parent is None and self._stack:
            parent = self._stack[-1]
        sid = len(self.spans)
        self.spans.append({
            "id": sid, "name": name, "start": start, "end": None,
            "parent": parent, "workload": self.workload, "op": op,
        })
        return sid

    def with_self_times(self) -> list[dict]:
        """The spans, each with ``duration`` and ``self`` seconds."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return [
            {**s, "duration": s["end"] - s["start"],
             "self": s["end"] - s["start"] - child_time[s["id"]]}
            for s in self.spans
        ]

    def self_time_by_name(self) -> dict:
        out: dict = {}
        for s in self.with_self_times():
            out[s["name"]] = out.get(s["name"], 0.0) + s["self"]
        return out

    def write(self, path: str) -> int:
        """Write one JSON object per span; returns the span count."""
        if not self.enabled:
            return 0
        os.makedirs(os.path.dirname(path), exist_ok=True)
        rows = self.with_self_times()
        with open(path, "w") as f:
            for row in rows:
                f.write(json.dumps(row) + "\n")
        return len(rows)
