"""Wall-clock timing helpers.

``Timer`` is the one-shot stopwatch.  For anything richer (nesting,
counters, export) use :func:`repro.telemetry.span` instead.
"""

from __future__ import annotations

import time


class Timer:
    """Context-manager stopwatch: ``with Timer() as t: ...; t.seconds``."""

    def __enter__(self):
        self._t0 = time.perf_counter()
        self.seconds = 0.0
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._t0
