"""Service resilience policy: admission control, deadlines, bisection.

The scheduler in front of the warm engine is where a production
service absorbs failure instead of amplifying it.  This module holds
the knobs (:class:`ServicePolicy`) and the structured errors callers
can program against:

* **Admission control** — a bounded queue depth sheds excess load
  with :class:`ShedError` at admission, before any state is minted,
  so overload fails in microseconds instead of queueing into a
  multi-second solve.
* **Deadlines** — each request carries an absolute
  ``time.monotonic()`` deadline minted at admission; the scheduler
  rejects expired requests at dispatch (before burning solver time)
  and again at demux (a result nobody is still waiting for is not a
  success), raising :class:`DeadlineExceeded`.
* **Poison isolation** — a batch member whose solve raises (NaN
  injection, malformed source, :class:`NumericalHealthError`) is
  located by bisection and failed alone with
  :class:`PoisonedRequestError`; its batchmates resolve normally.

All errors derive from :class:`RuntimeError` so existing "keep
serving the rest" handlers in the drain loop catch them unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "DeadlineExceeded",
    "PoisonedRequestError",
    "ServicePolicy",
    "ShedError",
]


class ShedError(RuntimeError):
    """Request rejected at admission: the queue is at capacity.

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
    been narrowed to a single culprit; ``__cause__`` carries the
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


@dataclass
class ServicePolicy:
    """Resilience knobs for one :class:`~repro.service.scheduler
    .CoalescingScheduler` (and the serve drain loop built on it).

    The defaults leave admission unbounded and requests
    deadline-free; poison bisection is not a knob, it always runs.
    """

    #: bound on the requests one ``solve`` call admits: the one at
    #: that depth and every later one is shed; 0 = unbounded.
    max_queue_depth: int = 0
    #: default per-request deadline in seconds from admission; None =
    #: requests never expire.
    deadline: float | None = None
    #: spool-drain attempts before a request is quarantined.
    max_attempts: int = 3

