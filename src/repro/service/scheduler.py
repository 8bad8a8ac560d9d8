"""Coalescing scheduler: independent requests → one batched column each.

The service's request path.  Callers :meth:`~CoalescingScheduler
.submit` forward requests asynchronously and get a
:class:`concurrent.futures.Future` back; a scheduler thread groups
requests that share a **group key** — the spec's artifact key plus
``(t_end, record)``, everything a fused loop must agree on — and packs
each group into one :meth:`~repro.service.engine.Engine.submit_batch`
call, demultiplexing the per-scenario seismograms back onto the
futures.

The queue is keyed: a request joins the queued group of its key (or
starts one), and the scheduler thread pops **at most** ``max_batch``
requests off the oldest group as soon as there is one and the engine
is free; the remainder stays queued, first in line.  The rule is
work-conserving and has nothing to tune: an idle engine never holds a
request, and a busy one batches exactly what arrived while it was
busy.  A caller that already holds several requests hands them over
together with :meth:`~CoalescingScheduler.submit_many` (or
:meth:`~CoalescingScheduler.map_wait`) so that they ride one batch;
``repro serve`` does, and its spool is the batching queue
(:mod:`repro.service.server`).

Coalescing is free of numerical consequence: ``run_batch`` column
``b`` is bit-identical to a solo ``run`` of scenario ``b`` (the
row-stacked GEMM and block-diagonal scatter keep the serial summation
orders — see ``tests/test_batch.py``), so a request cannot observe
whether it shared its time loop.

Failure is where coalescing could *amplify*: one NaN-poisoned request
would fail every batchmate's future.  With a
:class:`~repro.service.policy.ServicePolicy` armed, the scheduler
instead bisects a failing batch (log₂ re-runs against the warm
engine), fails only the culprit(s) with
:class:`~repro.service.policy.PoisonedRequestError`, and resolves the
innocents from the successful halves — still bitwise-identical to
solo runs, because column independence holds for any batch width.
The policy also bounds the queue (:class:`ShedError` fast-fail),
mints per-request deadlines, retries transient
:class:`~repro.parallel.transport.WorkerFailure`, and trips a circuit
breaker on repeated pool failures.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.parallel.transport import WorkerFailure
from repro.service.engine import Engine, SimulationSpec
from repro.service.policy import (
    CircuitOpenError,
    DeadlineExceeded,
    PoisonedRequestError,
    ServicePolicy,
    ShedError,
)

__all__ = ["ForwardRequest", "CoalescingScheduler"]


def _resolve(future: Future, result) -> None:
    """Set a result, tolerating futures the owner already cancelled
    (e.g. by a timed-out :meth:`CoalescingScheduler.close`)."""
    try:
        if not future.cancelled():
            future.set_result(result)
    except InvalidStateError:
        pass


def _fail(future: Future, exc: BaseException) -> None:
    try:
        if not future.cancelled():
            future.set_exception(exc)
    except InvalidStateError:
        pass


@dataclass
class ForwardRequest:
    """One independently-arriving forward-simulation request.

    ``trace_id`` names this request's end-to-end trace; the scheduler
    mints one on submit while telemetry is enabled (callers may set
    their own to join a larger trace).  ``request_id`` is an opaque
    caller handle echoed in structured errors (the serve loop uses
    the spool file id).  ``deadline`` is an absolute
    ``time.monotonic()`` reading after which the request is rejected
    instead of solved; the scheduler mints one from the policy's
    relative deadline at submit when the caller left it None."""

    spec: SimulationSpec
    scenario: object
    t_end: float
    receivers: np.ndarray | None = None
    record: str = "velocity"
    trace_id: str | None = None
    request_id: str | None = None
    deadline: float | None = None

    def group_key(self) -> tuple:
        """What a fused time loop must agree on: the artifact key (one
        basin, one set of operators), the horizon, the recorded field,
        and whether seismograms are wanted at all."""
        return (
            self.spec.key,
            float(self.t_end),
            self.record,
            self.receivers is not None,
        )


class _Group:
    """Queued requests sharing a group key."""

    __slots__ = ("requests", "futures", "t_enq")

    def __init__(self):
        self.requests: list[ForwardRequest] = []
        self.futures: list[Future] = []
        # enqueue times (perf_counter readings), only written while
        # telemetry is enabled
        self.t_enq: list[float] = []

    def split(self, n: int) -> "_Group":
        """Detach the first ``n`` requests as their own group."""
        head = _Group()
        head.requests, self.requests = self.requests[:n], self.requests[n:]
        head.futures, self.futures = self.futures[:n], self.futures[n:]
        head.t_enq, self.t_enq = self.t_enq[:n], self.t_enq[n:]
        return head


class CoalescingScheduler:
    """Async job queue in front of an :class:`Engine`.

    Parameters
    ----------
    engine:
        The warm engine that executes dispatched batches.
    max_batch:
        The widest batch a dispatch runs (``B`` of the fused loop).
    policy:
        A :class:`~repro.service.policy.ServicePolicy` arming
        admission control, deadlines, bisection, retry, and the
        breaker.  Defaults to ``ServicePolicy()`` (no shedding, no
        deadlines, bisection + retry + breaker on).
    """

    def __init__(
        self,
        engine: Engine,
        *,
        max_batch: int = 16,
        policy: ServicePolicy | None = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.engine = engine
        self.max_batch = int(max_batch)
        self.policy = policy if policy is not None else ServicePolicy()
        self._breaker = self.policy.make_breaker()
        self._groups: dict[tuple, _Group] = {}
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._closed = False
        self.requests = 0
        self.batches = 0
        self.coalesced = 0
        self.max_observed_batch = 0
        self.solves = 0
        self.shed = 0
        self.deadline_expired = 0
        self.poisoned = 0
        self.retries = 0
        self.bisections = 0
        # futures of the group currently running, so close() can
        # cancel in-flight work the thread never resolved
        self._inflight: list[Future] | None = None
        self._thread = threading.Thread(
            target=self._loop, name="repro-scheduler", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------- submission

    def _enqueue(self, request: ForwardRequest) -> Future:
        """Under the lock: run the admission gates, then join (or
        start) the request's group.  Raises before anything is
        enqueued when a gate rejects."""
        if self._closed:
            raise RuntimeError("scheduler is closed")
        policy = self.policy
        if self._breaker is not None and not self._breaker.allow():
            telemetry.count("service.breaker.rejected")
            raise CircuitOpenError(
                "circuit breaker open after repeated pool failures",
                retry_after=self._breaker.retry_after(),
            )
        if policy.max_queue_depth > 0:
            depth = sum(len(g.requests) for g in self._groups.values())
            if depth >= policy.max_queue_depth:
                self.shed += 1
                telemetry.count("service.shed")
                raise ShedError(
                    f"queue at capacity ({depth}/"
                    f"{policy.max_queue_depth}); shedding",
                    depth=depth,
                    limit=policy.max_queue_depth,
                )
        if request.deadline is None and policy.deadline is not None:
            request.deadline = time.monotonic() + policy.deadline
        key = request.group_key()
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _Group()
        future: Future = Future()
        group.requests.append(request)
        group.futures.append(future)
        if telemetry.enabled():
            if request.trace_id is None:
                request.trace_id = telemetry.new_trace_id()
            group.t_enq.append(time.perf_counter())
        self.requests += 1
        telemetry.count("service.requests")
        return future

    def submit(self, request: ForwardRequest) -> Future:
        """Enqueue a request; the Future resolves to its
        :class:`~repro.io.seismogram.Seismograms` (or None without
        receivers) once its batch has run.  It dispatches as soon as
        the engine is free, joining its key's queued group if one is
        waiting behind a running solve.

        Fast-fail admission gates run *before* anything is enqueued:
        an open circuit breaker raises
        :class:`~repro.service.policy.CircuitOpenError` and a full
        queue raises :class:`~repro.service.policy.ShedError` — both
        in microseconds, with no solver time or queue slot spent."""
        with self._wake:
            future = self._enqueue(request)
            self._wake.notify()
        return future

    def submit_many(self, requests) -> list[Future]:
        """Hand over a list the caller has already collected: every
        request is enqueued under one lock hold, so co-keyed members
        are one batch (up to ``max_batch``) rather than a race of
        single submits against the scheduler thread.

        The admission gates run per request, in order; a shed or
        breaker-rejected request comes back as an already-failed
        future instead of raising, so one rejection does not lose the
        caller its handles on the rest."""
        futures = []
        with self._wake:
            try:
                for request in requests:
                    try:
                        future = self._enqueue(request)
                    except (ShedError, CircuitOpenError) as e:
                        future = Future()
                        future.set_exception(e)
                    futures.append(future)
            finally:
                # also when a later request raises (closed scheduler,
                # unhashable spec): what is already enqueued must run
                self._wake.notify()
        return futures

    def map_wait(self, requests, *, timeout: float | None = None) -> list:
        """:meth:`submit_many`, then block for all results (in order).

        ``timeout`` bounds the *total* wait across all futures;
        exceeding it raises :class:`concurrent.futures.TimeoutError`
        (the remaining futures stay pending — close the scheduler to
        cancel them)."""
        futures = self.submit_many(requests)
        if timeout is None:
            return [f.result() for f in futures]
        deadline = time.monotonic() + timeout
        return [
            f.result(timeout=max(deadline - time.monotonic(), 0.0))
            for f in futures
        ]

    # -------------------------------------------------------- dispatch

    _dispatching = False

    def _take_ready(self) -> _Group | None:
        """Under the lock: pop up to ``max_batch`` requests off the
        oldest group.  What a group holds beyond the cap (it can grow
        past it behind a running solve) stays queued, first in line."""
        key = next(iter(self._groups), None)
        if key is None:
            return None
        if len(self._groups[key].requests) > self.max_batch:
            return self._groups[key].split(self.max_batch)
        return self._groups.pop(key)

    def _loop(self) -> None:
        while True:
            with self._wake:
                group = self._take_ready()
                if group is None:
                    if self._closed:
                        return
                    self._wake.wait()
                    continue
                self._dispatching = True
                self._inflight = group.futures
            try:
                self._run_group(group)
            finally:
                with self._wake:
                    self._dispatching = False
                    self._inflight = None
                    self._wake.notify()

    def _run_group(self, group: _Group) -> None:
        requests, futures = group.requests, group.futures
        B = len(requests)
        self.batches += 1
        self.coalesced += B - 1
        self.max_observed_batch = max(self.max_observed_batch, B)
        telemetry.count("service.batches")
        telemetry.count("service.coalesced", B - 1)
        # deadline gate: a request that aged out in the queue is
        # rejected here, before any solver time is spent on it
        now = time.monotonic()
        live: list[int] = []
        for i, r in enumerate(requests):
            if r.deadline is not None and now >= r.deadline:
                self.deadline_expired += 1
                telemetry.count("service.deadline.expired")
                _fail(
                    futures[i],
                    DeadlineExceeded(
                        f"request expired {now - r.deadline:.3f}s "
                        "before dispatch",
                        request_id=r.request_id,
                        stage="dispatch",
                        overdue=now - r.deadline,
                    ),
                )
            else:
                live.append(i)
        if not live:
            return
        requests = [requests[i] for i in live]
        futures = [futures[i] for i in live]
        enq = [
            group.t_enq[i] for i in live if i < len(group.t_enq)
        ]
        if self._breaker is not None and not self._breaker.allow():
            err = CircuitOpenError(
                "circuit breaker open; batch fast-failed",
                retry_after=self._breaker.retry_after(),
            )
            telemetry.count("service.breaker.fastfail", len(futures))
            for f in futures:
                _fail(f, err)
            return
        # one trace for the shared solve; each member request's trace
        # links to it so stitching a request pulls in the batch's
        # solver spans and per-rank phase split
        tr = telemetry.current_tracer()
        batch_trace = None
        t_dispatch = 0.0
        if tr is not None:
            batch_trace = telemetry.new_trace_id()
            for r in requests:
                if r.trace_id is not None:
                    tr.link_trace(r.trace_id, batch_trace)
            t_dispatch = time.perf_counter()
        try:
            with telemetry.trace_context(batch_trace):
                with telemetry.span("service.dispatch") as _s:
                    _s.add("batch", len(requests))
                    demux = self._dispatch(requests, futures)
        except BaseException as e:
            # belt and braces: _dispatch handles Exceptions itself, so
            # only interpreter-level BaseExceptions land here — never
            # leave a caller hung on an unresolved future
            for f in futures:
                _fail(f, e)
            return
        if tr is not None:
            # demux is timed where the futures resolve (summed over
            # sub-batches under bisection); the rest of the dispatch
            # is the solve
            t_done = time.perf_counter()
            t_solved = t_done - demux
            solve = t_solved - t_dispatch
            # how long the batch's oldest member waited for it
            coalesce = t_dispatch - enq[0] if enq else 0.0
            telemetry.observe("service.latency.solve", solve)
            telemetry.observe("service.latency.demux", demux)
            telemetry.observe("service.latency.coalesce", coalesce)
            telemetry.observe("service.batch_size", B)
            tr.record_event(
                ("service.dispatch", "demux"),
                t_solved,
                demux,
                trace_id=batch_trace,
            )
            for i, r in enumerate(requests):
                t_enq = enq[i] if i < len(enq) else t_dispatch
                queue = t_dispatch - t_enq
                total = t_done - t_enq
                telemetry.observe("service.latency.queue", queue)
                telemetry.observe("service.latency.total", total)
                tr.record_event(
                    ("service.request", "queue"),
                    t_enq,
                    queue,
                    trace_id=r.trace_id,
                )
                tr.record_event(
                    ("service.request",),
                    t_enq,
                    total,
                    trace_id=r.trace_id,
                    counters={"batch": B},
                )

    # ---------------------------------------------- failure isolation

    def _solve(self, requests: list[ForwardRequest]) -> list:
        """One engine call for ``requests``, retried through the
        policy's backoff on transient :class:`WorkerFailure`."""
        first = requests[0]

        def call():
            self.solves += 1
            return self.engine.submit_batch(
                first.spec,
                [r.scenario for r in requests],
                first.t_end,
                receivers=(
                    [r.receivers for r in requests]
                    if first.receivers is not None
                    else None
                ),
                record=first.record,
            )

        retry = self.policy.retry
        if retry is None:
            return call()
        return retry.call(
            call, retry_on=(WorkerFailure,), on_retry=self._note_retry
        )

    def _note_retry(self, attempt: int, exc: BaseException) -> None:
        self.retries += 1
        telemetry.count("service.retries")

    def _dispatch(
        self, requests: list[ForwardRequest], futures: list[Future]
    ) -> float:
        """Solve ``requests`` as one batch, bisecting on failure;
        returns the seconds spent resolving futures with results (the
        demux), summed over the sub-batches of a bisection.

        A clean solve resolves every future.  A ``WorkerFailure``
        surviving the retry policy is *infrastructure*, not request
        content — the whole sub-batch fails with it (no bisection;
        re-running a poisoned pool would just fail again) and the
        breaker counts it.  Any other exception is *content*: split
        the batch in half and recurse, so log₂(B) extra warm solves
        isolate the culprit(s), which alone get
        :class:`PoisonedRequestError`; innocents resolve from the
        successful halves, each column still bitwise-identical to a
        solo run."""
        try:
            results = self._solve(requests)
        except WorkerFailure as e:
            tripped = (
                self._breaker is not None
                and self._breaker.record_failure()
            )
            for f in futures:
                _fail(f, e)
            if tripped:
                self._drain_queue(
                    CircuitOpenError(
                        "circuit breaker opened by repeated pool "
                        "failures; queued batch fast-failed",
                        retry_after=(
                            self._breaker.retry_after()
                            if self._breaker is not None
                            else 0.0
                        ),
                    )
                )
            return 0.0
        except Exception as e:
            if len(requests) == 1 or not self.policy.bisect:
                for r, f in zip(requests, futures):
                    self.poisoned += 1
                    telemetry.count("service.poisoned")
                    err = PoisonedRequestError(
                        f"request {r.request_id or '<anonymous>'} "
                        f"poisoned its batch: {e}",
                        request_id=r.request_id,
                        trace_id=r.trace_id,
                    )
                    err.__cause__ = e
                    _fail(f, err)
                return 0.0
            self.bisections += 1
            telemetry.count("service.bisect.rounds")
            mid = len(requests) // 2
            return self._dispatch(
                requests[:mid], futures[:mid]
            ) + self._dispatch(requests[mid:], futures[mid:])
        if self._breaker is not None:
            self._breaker.record_success()
        if results is None:
            results = [None] * len(requests)
        t_solved = time.perf_counter()
        now = time.monotonic()
        for r, f, seis in zip(requests, futures, results):
            if r.deadline is not None and now >= r.deadline:
                # the solve outlived the caller's patience: a result
                # nobody waits for is reported as the expiry it is
                self.deadline_expired += 1
                telemetry.count("service.deadline.expired")
                _fail(
                    f,
                    DeadlineExceeded(
                        f"request expired {now - r.deadline:.3f}s "
                        "before demux",
                        request_id=r.request_id,
                        stage="demux",
                        overdue=now - r.deadline,
                    ),
                )
            else:
                _resolve(f, seis)
        return time.perf_counter() - t_solved

    def _drain_queue(self, exc: Exception) -> None:
        """Fail every queued (not yet dispatched) request with
        ``exc`` — the breaker just opened, so letting them wait for
        the solver would only convert fast failures into slow ones."""
        with self._wake:
            drained = list(self._groups.values())
            self._groups.clear()
            self._wake.notify()
        for group in drained:
            for f in group.futures:
                _fail(f, exc)

    # -------------------------------------------------------- lifetime

    def stats(self) -> dict:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "coalesced": self.coalesced,
            "max_batch_observed": self.max_observed_batch,
            "mean_batch": (
                self.requests / self.batches if self.batches else 0.0
            ),
            "solves": self.solves,
            "shed": self.shed,
            "deadline_expired": self.deadline_expired,
            "poisoned": self.poisoned,
            "retries": self.retries,
            "bisections": self.bisections,
            "breaker": self._breaker_state(),
        }

    def _breaker_state(self) -> str:
        return self._breaker.state if self._breaker is not None else "disabled"

    def queue_snapshot(self) -> dict:
        """Point-in-time live state for the status file: the queued
        requests of each group key (oldest group first) and their
        total ``depth`` — in-flight requests are not queued — whether
        a batch is in flight, and the breaker state.  Taken under the
        scheduler lock, so it is a consistent view."""
        with self._wake:
            pending = [len(g.requests) for g in self._groups.values()]
            return {
                "pending": pending,
                "depth": sum(pending),
                "dispatching": self._dispatching,
                "breaker": self._breaker_state(),
            }

    def close(self, *, wait: bool = True, timeout: float = 60.0) -> None:
        """Stop accepting requests; dispatch what is queued, then stop
        the scheduler thread.

        If the thread does not finish within ``timeout`` (a wedged
        engine, a hung pool), every still-pending future — queued or
        in flight — is cancelled so ``map_wait`` callers observe a
        :class:`concurrent.futures.CancelledError` instead of
        blocking forever."""
        with self._wake:
            if self._closed:
                return
            self._closed = True
            self._wake.notify()
        if not wait:
            return
        self._thread.join(timeout=timeout)
        leftovers: list[Future] = []
        with self._wake:
            for group in self._groups.values():
                leftovers.extend(group.futures)
            self._groups.clear()
            if self._inflight is not None:
                leftovers.extend(self._inflight)
        for f in leftovers:
            if not f.done():
                f.cancel()
                telemetry.count("service.cancelled_on_close")

    def __enter__(self) -> "CoalescingScheduler":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
