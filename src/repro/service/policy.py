"""Service resilience policy: admission control, deadlines, bisection,
retry, and the circuit breaker.

The scheduler in front of the warm engine is where a production
service absorbs failure instead of amplifying it.  This module holds
the knobs (:class:`ServicePolicy`), the structured errors callers can
program against, and the :class:`CircuitBreaker` state machine:

* **Admission control** — a bounded queue depth sheds excess load
  with :class:`ShedError` at ``submit`` time, before any state is
  enqueued, so overload fails in microseconds instead of queueing
  into a multi-second solve.
* **Deadlines** — each request carries an absolute
  ``time.monotonic()`` deadline minted at ``submit``; the scheduler
  rejects expired requests at dispatch (before burning solver time)
  and again at demux (a result nobody is still waiting for is not a
  success), raising :class:`DeadlineExceeded`.
* **Poison isolation** — a batch member whose solve raises (NaN
  injection, malformed source, :class:`NumericalHealthError`) is
  located by bisection and failed alone with
  :class:`PoisonedRequestError`; its batchmates resolve normally.
* **Circuit breaker** — repeated *infrastructure* failures
  (:class:`~repro.parallel.transport.WorkerFailure` surviving the
  retry policy) trip the breaker open: queued and new requests
  fast-fail with :class:`CircuitOpenError` until a cooldown elapses,
  then a single probe batch half-opens it.

All errors derive from :class:`RuntimeError` so existing "keep
serving the rest" handlers in the drain loop catch them unchanged.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro import telemetry
from repro.resilience.recovery import RetryPolicy

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "DeadlineExceeded",
    "PoisonedRequestError",
    "ServicePolicy",
    "ShedError",
]


class ShedError(RuntimeError):
    """Request rejected at submit: the queue is at capacity.

    Shedding is deliberate backpressure — the caller should retry
    against another replica or after a backoff, not treat this as a
    solver fault.  ``depth``/``limit`` record the queue state at
    rejection."""

    def __init__(self, detail: str, *, depth: int = 0, limit: int = 0):
        super().__init__(detail)
        self.depth = int(depth)
        self.limit = int(limit)


class DeadlineExceeded(RuntimeError):
    """Request expired before (or while) its batch ran.

    ``stage`` is ``"dispatch"`` when the request aged out in the
    queue (no solver time was spent on it) or ``"demux"`` when the
    batch finished after the deadline passed."""

    def __init__(
        self,
        detail: str,
        *,
        request_id: str | None = None,
        stage: str = "dispatch",
        overdue: float = 0.0,
    ):
        super().__init__(detail)
        self.request_id = request_id
        self.stage = stage
        self.overdue = float(overdue)


class PoisonedRequestError(RuntimeError):
    """This specific request made its solve raise.

    Minted by the scheduler's bisection after a batch failure has
    been narrowed to a single culprit (with bisection off, for every
    member of the failing batch); ``__cause__`` carries the
    original solver exception (e.g. a
    :class:`~repro.resilience.health.NumericalHealthError`)."""

    def __init__(
        self,
        detail: str,
        *,
        request_id: str | None = None,
        trace_id: str | None = None,
    ):
        super().__init__(detail)
        self.request_id = request_id
        self.trace_id = trace_id


class CircuitOpenError(RuntimeError):
    """Fast-fail: the breaker is open after repeated pool failures.

    ``retry_after`` is the seconds remaining until the breaker will
    admit a probe (0.0 when unknown)."""

    def __init__(self, detail: str, *, retry_after: float = 0.0):
        super().__init__(detail)
        self.retry_after = float(retry_after)


class CircuitBreaker:
    """Three-state breaker over the engine's worker pools.

    ``closed`` (normal) counts consecutive infrastructure failures;
    ``threshold`` of them opens the breaker.  While ``open``,
    :meth:`allow` answers False until ``cooldown`` seconds pass, at
    which point the breaker half-opens and admits exactly the next
    dispatch as a probe: success closes it, failure re-opens it (and
    restarts the cooldown).  Thread-safe — ``submit`` callers and the
    scheduler thread consult it concurrently.
    """

    def __init__(
        self,
        threshold: int = 5,
        cooldown: float = 30.0,
        *,
        clock=time.monotonic,
    ):
        self.threshold = int(threshold)
        self.cooldown = float(cooldown)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        with self._lock:
            if (
                self._state == "open"
                and self._clock() - self._opened_at >= self.cooldown
            ):
                return "half_open"
            return self._state

    def retry_after(self) -> float:
        """Seconds until an open breaker will admit a probe."""
        with self._lock:
            if self._state != "open":
                return 0.0
            return max(
                self.cooldown - (self._clock() - self._opened_at), 0.0
            )

    def allow(self) -> bool:
        """May a request pass right now?  Transitions open →
        half_open once the cooldown has elapsed (the caller becomes
        the probe)."""
        with self._lock:
            if self._state != "open":
                return True
            if self._clock() - self._opened_at >= self.cooldown:
                self._state = "half_open"
                telemetry.count("service.breaker.half_open")
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            if self._state != "closed":
                telemetry.count("service.breaker.closed")
            self._state = "closed"
            self._failures = 0

    def record_failure(self) -> bool:
        """Note an infrastructure failure; returns True when this
        one tripped the breaker open (the caller should drain its
        queue with fast errors)."""
        with self._lock:
            if self._state == "half_open":
                # the probe failed: straight back to open
                self._state = "open"
                self._opened_at = self._clock()
                telemetry.count("service.breaker.opened")
                return True
            self._failures += 1
            if self._state == "closed" and self._failures >= self.threshold:
                self._state = "open"
                self._opened_at = self._clock()
                telemetry.count("service.breaker.opened")
                return True
            return False


@dataclass
class ServicePolicy:
    """Resilience knobs for one :class:`~repro.service.scheduler
    .CoalescingScheduler` (and the serve drain loop built on it).

    The defaults arm poison bisection, retry, and the breaker but
    leave admission unbounded and requests deadline-free — the
    zero-configuration behavior every existing caller sees is
    unchanged on the success path.
    """

    #: bound on queued requests (not counting the batch in flight);
    #: 0 = unbounded.
    max_queue_depth: int = 0
    #: default per-request deadline in seconds from submit; None =
    #: requests never expire.
    deadline: float | None = None
    #: bisect failing batches to isolate culprits (False fails every
    #: member with :class:`PoisonedRequestError`, the solver's
    #: exception as its ``__cause__``, after one solve).
    bisect: bool = True
    #: backoff schedule for transient ``WorkerFailure`` retries;
    #: None disables retrying.
    retry: RetryPolicy | None = field(default_factory=RetryPolicy)
    #: consecutive post-retry pool failures that open the breaker;
    #: 0 disables the breaker.
    breaker_threshold: int = 5
    #: seconds an open breaker waits before admitting a probe.
    breaker_cooldown: float = 30.0
    #: spool-drain attempts before a request is quarantined.
    max_attempts: int = 3

    def make_breaker(self) -> CircuitBreaker | None:
        if self.breaker_threshold <= 0:
            return None
        return CircuitBreaker(self.breaker_threshold, self.breaker_cooldown)
