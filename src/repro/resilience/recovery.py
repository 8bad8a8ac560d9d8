"""Retry policy for recovering SPMD runs from worker failures.

The distributed solver's recovery loop is: detect the failure (dead /
hung / erroring ranks, surfaced as
:class:`~repro.parallel.transport.WorkerFailure`), tear the worker pool
down and respawn it, rewind to the last collective checkpoint, and
re-dispatch — with bounded exponential backoff between attempts so a
persistently failing environment gives up instead of spinning.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro import telemetry


@dataclass
class RetryPolicy:
    """Bounded exponential backoff for SPMD recovery.

    ``max_retries`` failed attempts after the first raise the last
    failure; the sleep before retry ``i`` (1-based) is
    ``backoff * factor**(i-1)``, capped at ``max_backoff``.
    """

    max_retries: int = 2
    backoff: float = 0.05
    factor: float = 2.0
    max_backoff: float = 5.0

    def sleep_before(self, attempt: int) -> float:
        """Backoff duration before retry ``attempt`` (1-based)."""
        return min(
            self.backoff * self.factor ** (attempt - 1), self.max_backoff
        )

    def wait(self, attempt: int) -> None:
        delay = self.sleep_before(attempt)
        telemetry.count("resilience.retries")
        if delay > 0:
            time.sleep(delay)
