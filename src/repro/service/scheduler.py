"""Coalescing scheduler: independent requests → one batched column each.

The service's request path.  A caller hands over the requests it holds
with :meth:`~CoalescingScheduler.solve` (or
:meth:`~CoalescingScheduler.map_wait`) and the scheduler solves them
in the caller's thread: it groups requests that share a **group key**
— the spec's artifact key plus ``(t_end, record)``, everything a fused
loop must agree on — and packs each group into one
:meth:`~repro.service.engine.Engine.submit_batch` call, handing the
per-scenario seismograms back as each batch demuxes.

Groups run in first-arrival order, each split into batches of at most
``max_batch`` requests.  There is no window and nothing to tune: a
call's requests dispatch at once, and what arrives while they solve
waits for the caller's next call.  ``repro serve`` calls once per
claimed pass, so its spool is the batching queue
(:mod:`repro.service.server`).

Coalescing is free of numerical consequence: ``run_batch`` column
``b`` is bit-identical to a solo ``run`` of scenario ``b`` (the
row-stacked GEMM and block-diagonal scatter keep the serial summation
orders — see ``tests/test_batch.py``), so a request cannot observe
whether it shared its time loop.

Failure is where coalescing could *amplify*: one NaN-poisoned request
would fail every batchmate.  The scheduler instead bisects a failing
batch (log₂ re-runs against the warm engine), fails only the
culprit(s) with :class:`~repro.service.policy.PoisonedRequestError`,
and resolves the innocents from the successful halves — still
bitwise-identical to solo runs, because column independence holds for
any batch width.  A :class:`~repro.service.policy.ServicePolicy` also
bounds the queue (:class:`ShedError` fast-fail) and mints per-request
deadlines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.service.engine import Engine, SimulationSpec
from repro.service.policy import (
    DeadlineExceeded,
    PoisonedRequestError,
    ServicePolicy,
    ShedError,
)

__all__ = ["ForwardRequest", "CoalescingScheduler"]


@dataclass
class ForwardRequest:
    """One independently-arriving forward-simulation request.

    ``trace_id`` names this request's end-to-end trace; the scheduler
    mints one at admission while telemetry is enabled (callers may set
    their own to join a larger trace).  ``request_id`` is an opaque
    caller handle echoed in structured errors (the serve loop uses
    the spool file id).  ``deadline`` is an absolute
    ``time.monotonic()`` reading after which the request is rejected
    instead of solved; the scheduler mints one from the policy's
    relative deadline at admission when the caller left it None."""

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


class CoalescingScheduler:
    """Synchronous coalescing front end of an :class:`Engine`.

    Parameters
    ----------
    engine:
        The warm engine that executes dispatched batches.
    max_batch:
        The widest batch a dispatch runs (``B`` of the fused loop).
    policy:
        A :class:`~repro.service.policy.ServicePolicy` arming
        admission control and deadlines.  Defaults to
        ``ServicePolicy()`` (no shedding, no deadlines).
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
        self.requests = 0
        self.batches = 0
        self.coalesced = 0
        self.max_observed_batch = 0
        self.solves = 0
        self.shed = 0
        self.deadline_expired = 0
        self.poisoned = 0
        self.bisections = 0

    # -------------------------------------------------------- admission

    def _admit(self, request: ForwardRequest, depth: int) -> float:
        """Run the admission gate for a request with ``depth`` admitted
        requests ahead of it; returns its enqueue time.  Raises
        :class:`ShedError` before any state is minted when the queue
        is at capacity."""
        policy = self.policy
        if 0 < policy.max_queue_depth <= depth:
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
        if request.trace_id is None and telemetry.enabled():
            request.trace_id = telemetry.new_trace_id()
        self.requests += 1
        telemetry.count("service.requests")
        return time.perf_counter()

    def solve(self, requests):
        """Solve ``requests``, yielding ``(index, result, error)`` for
        each as its batch demuxes: ``result`` is the request's
        :class:`~repro.io.seismogram.Seismograms` (None without
        receivers) and ``error`` None, or ``result`` is None and
        ``error`` says why it was not served.

        Admission runs first, per request in order: the request at
        position ``i`` sees the ``i`` admitted ahead of it as its
        queue depth, and a shed request is yielded at once with its
        :class:`~repro.service.policy.ShedError`, before any solver
        time is spent.  The admitted ones then run group by group in
        first-arrival order, at most ``max_batch`` per batch."""
        groups: dict[tuple, list] = {}
        admitted = 0
        for i, request in enumerate(requests):
            try:
                t_enq = self._admit(request, admitted)
            except ShedError as e:
                yield i, None, e
                continue
            admitted += 1
            groups.setdefault(request.group_key(), []).append(
                (i, request, t_enq)
            )
        for members in groups.values():
            for s in range(0, len(members), self.max_batch):
                yield from self._run_group(members[s:s + self.max_batch])

    def map_wait(self, requests) -> list:
        """:meth:`solve` every request; returns the results in order,
        or raises the error of the first request that was not
        served."""
        outcomes = sorted(self.solve(requests), key=lambda o: o[0])
        for _, _, error in outcomes:
            if error is not None:
                raise error
        return [result for _, result, _ in outcomes]

    # -------------------------------------------------------- dispatch

    def _run_group(self, members: list):
        """Run one batch of ``(index, request, t_enq)`` members and
        yield their outcomes."""
        B = len(members)
        self.batches += 1
        self.coalesced += B - 1
        self.max_observed_batch = max(self.max_observed_batch, B)
        telemetry.count("service.batches")
        telemetry.count("service.coalesced", B - 1)
        # deadline gate: a request that aged out in the queue is
        # rejected here, before any solver time is spent on it
        now = time.monotonic()
        live = []
        for i, r, t_enq in members:
            if r.deadline is not None and now >= r.deadline:
                yield i, None, self._expired(r, now, "dispatch")
            else:
                live.append((i, r, t_enq))
        if not live:
            return
        # one trace for the shared solve; each member request's trace
        # links to it so stitching a request pulls in the batch's
        # solver spans
        tr = telemetry.current_tracer()
        batch_trace = None
        if tr is not None:
            batch_trace = telemetry.new_trace_id()
            for _, r, _ in live:
                if r.trace_id is not None:
                    tr.link_trace(r.trace_id, batch_trace)
        t_dispatch = time.perf_counter()
        with telemetry.trace_context(batch_trace):
            with telemetry.span("service.dispatch") as _s:
                _s.add("batch", len(live))
                outcomes = self._dispatch(live)
        # the demux hands the results back; it lasts until the caller
        # asks for the next outcome after the batch's last
        t_solved = time.perf_counter()
        yield from outcomes
        if tr is None:
            return
        t_done = time.perf_counter()
        demux = t_done - t_solved
        telemetry.observe("service.latency.solve", t_solved - t_dispatch)
        telemetry.observe("service.latency.demux", demux)
        # how long the batch's oldest member waited for it
        telemetry.observe("service.latency.coalesce", t_dispatch - live[0][2])
        telemetry.observe("service.batch_size", B)
        tr.record_event(
            ("service.dispatch", "demux"),
            t_solved,
            demux,
            trace_id=batch_trace,
        )
        for _, r, t_enq in live:
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

    def _expired(self, r: ForwardRequest, now: float, stage: str):
        self.deadline_expired += 1
        telemetry.count("service.deadline.expired")
        return DeadlineExceeded(
            f"request expired {now - r.deadline:.3f}s before {stage}",
            request_id=r.request_id,
            stage=stage,
            overdue=now - r.deadline,
        )

    # ---------------------------------------------- failure isolation

    def _solve(self, requests: list[ForwardRequest]) -> list:
        """One engine call for ``requests``."""
        first = requests[0]
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

    def _dispatch(self, members: list) -> list:
        """Solve ``members`` as one batch, bisecting on failure;
        returns their ``(index, result, error)`` outcomes.

        A clean solve serves every member.  On an exception, split
        the batch in half and recurse, so log₂(B) extra warm solves
        isolate the culprit(s), which alone get
        :class:`PoisonedRequestError`; innocents are served from the
        successful halves, each column still bitwise-identical to a
        solo run."""
        try:
            results = self._solve([r for _, r, _ in members])
        except Exception as e:
            if len(members) == 1:
                [(i, r, _)] = members
                self.poisoned += 1
                telemetry.count("service.poisoned")
                err = PoisonedRequestError(
                    f"request {r.request_id or '<anonymous>'} "
                    f"poisoned its batch: {e}",
                    request_id=r.request_id,
                    trace_id=r.trace_id,
                )
                err.__cause__ = e
                return [(i, None, err)]
            self.bisections += 1
            telemetry.count("service.bisect.rounds")
            mid = len(members) // 2
            return self._dispatch(members[:mid]) + self._dispatch(
                members[mid:]
            )
        if results is None:
            results = [None] * len(members)
        now = time.monotonic()
        outcomes = []
        for (i, r, _), seis in zip(members, results):
            if r.deadline is not None and now >= r.deadline:
                # the solve outlived the caller's patience: a result
                # nobody waits for is reported as the expiry it is
                outcomes.append((i, None, self._expired(r, now, "demux")))
            else:
                outcomes.append((i, seis, None))
        return outcomes

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
            "bisections": self.bisections,
        }

    def close(self) -> None:
        """Idempotent, and the scheduler stays usable: it solves in
        its caller's thread and holds nothing to release."""

    def __enter__(self) -> "CoalescingScheduler":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
