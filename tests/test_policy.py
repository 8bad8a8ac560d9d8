"""Service resilience policy: the failure paths, pinned.

What PR 10 guarantees, each with a test:

* **Poison isolation** — a coalesced batch with 1 (or 2) NaN-poisoned
  members fails *only* the culprits with
  :class:`PoisonedRequestError`; every innocent future resolves with
  bits identical to a solo run, and the bisection uses at most the
  log₂ solve bound.
* **Admission control** — a bounded queue sheds the overflow request
  with :class:`ShedError` before enqueueing anything.
* **Deadlines** — a request that ages out in the queue is rejected at
  dispatch (no solver time spent); one whose batch outlives it is
  rejected at demux.
* **Retry + breaker** — transient :class:`WorkerFailure` retries
  through :class:`RetryPolicy`; repeated failures trip the breaker,
  which fast-fails queued and new work, then half-opens on a probe.
* **Close cannot hang callers** — a wedged engine at ``close`` leaves
  every pending future cancelled, not forgotten.
"""

import threading
import time
from concurrent.futures import CancelledError, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError

import numpy as np
import pytest

from repro.materials import HomogeneousMaterial, LayeredMaterial
from repro.parallel.transport import WorkerFailure
from repro.resilience.health import NumericalHealthError
from repro.resilience.recovery import RetryPolicy
from repro.service import (
    CircuitBreaker,
    CircuitOpenError,
    CoalescingScheduler,
    DeadlineExceeded,
    Engine,
    ForwardRequest,
    PoisonedRequestError,
    ServicePolicy,
    ShedError,
    SimulationSpec,
)
from repro.sources import idealized_strike_slip

MAT = HomogeneousMaterial(vs=1000.0, vp=1800.0, rho=2000.0)
#: tests/test_lts.py's soft basin over stiff bedrock: a two-cluster plan
LAYERED = LayeredMaterial(
    [875.0], vs=[200.0, 1600.0], vp=[400.0, 3200.0], rho=[2000.0, 2000.0]
)

SPEC_KW = dict(
    material=MAT,
    L=8000.0,
    fmax=0.4,
    box_frac=(1, 1, 0.5),
    max_level=3,
)

RECEIVERS = np.array([[4000.0, 4000.0, 0.0], [2000.0, 3000.0, 0.0]])


def make_spec(**overrides) -> SimulationSpec:
    kw = dict(SPEC_KW)
    kw.update(overrides)
    return SimulationSpec(**kw)


def poisoned_scenario(L):
    """A strike-slip scenario whose first source carries a NaN moment
    tensor — its forcing poisons the shared state block and trips the
    solver's finite-health check."""
    sc = idealized_strike_slip(L=L)
    sc.sources[0].moment = sc.sources[0].moment * np.nan
    return sc


@pytest.fixture(scope="module")
def warm_engine():
    eng = Engine()
    yield eng
    eng.close()


# ------------------------------------------------------ stub machinery


class _StubSpec:
    """Grouping key stand-in — the stub engine never builds it."""

    key = "stub-spec"


class StubEngine:
    """Engine double: scripted results/exceptions, optional blocking.

    ``script`` is a callable invoked per ``submit_batch`` call (after
    ``calls`` is bumped); raise inside it to fail the batch.  ``gate``
    is an optional :class:`threading.Event` the engine waits on
    before touching the script — the hook the close/breaker-drain
    tests use to hold a batch in flight."""

    def __init__(self, script=None, gate=None):
        self.calls = 0
        self.script = script
        self.gate = gate

    def submit_batch(
        self, spec, scenarios, t_end, *, receivers=None, record="velocity"
    ):
        self.calls += 1
        if self.gate is not None:
            self.gate.wait()
        if self.script is not None:
            self.script(self.calls)
        return [f"result-{i}" for i in range(len(scenarios))]

    def close(self):
        pass


def _req(t_end=1.0, **kw):
    return ForwardRequest(_StubSpec(), object(), t_end, **kw)


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError("timed out waiting for condition")
        time.sleep(0.002)


# -------------------------------------------------- poisoned batches


def test_one_poisoned_member_is_isolated(warm_engine, spec=None):
    spec = spec or make_spec()
    sim = warm_engine.simulation(spec)
    t_end = 12 * sim.dt
    scenarios = [
        poisoned_scenario(spec.L),
        idealized_strike_slip(L=spec.L),
        idealized_strike_slip(L=spec.L, slip=0.5),
        idealized_strike_slip(L=spec.L, rise_time=1.5),
    ]
    sched = CoalescingScheduler(
        warm_engine,
        max_batch=len(scenarios),
        policy=ServicePolicy(retry=None),
    )
    futures = sched.submit_many([
        ForwardRequest(
            spec, sc, t_end, receivers=RECEIVERS, request_id=f"req-{i}",
        )
        for i, sc in enumerate(scenarios)
    ])
    wait(futures)
    # the culprit fails alone, structurally
    err = futures[0].exception()
    assert isinstance(err, PoisonedRequestError)
    assert err.request_id == "req-0"
    assert isinstance(err.__cause__, NumericalHealthError)
    # every innocent resolves bitwise-identical to a solo run
    for i in (1, 2, 3):
        seis = futures[i].result()
        solo = warm_engine.submit(
            spec, scenarios[i], t_end, receivers=RECEIVERS
        )
        assert np.array_equal(seis.data, solo.seismograms.data)
    # log2 bound: B=4 with one culprit costs 2*log2(B)+1 = 5 solves
    stats = sched.stats()
    assert stats["solves"] == 5
    assert stats["poisoned"] == 1
    assert stats["bisections"] == 2
    sched.close()


def test_one_poisoned_member_is_isolated_under_lts(warm_engine):
    # a two-cluster plan: the batched clustered schedule carries the
    # sentinel too (it used to resolve request 0 with a non-finite
    # seismogram: solves 1, poisoned 0, bisections 0)
    spec = make_spec(material=LAYERED, lts=8)
    assert not warm_engine.simulation(spec).solver.lts_plan(max_rate=8).trivial
    test_one_poisoned_member_is_isolated(warm_engine, spec)


def test_two_poisoned_members_are_both_isolated(warm_engine):
    spec = make_spec()
    sim = warm_engine.simulation(spec)
    t_end = 12 * sim.dt
    scenarios = [
        poisoned_scenario(spec.L),
        idealized_strike_slip(L=spec.L),
        idealized_strike_slip(L=spec.L, slip=0.5),
        poisoned_scenario(spec.L),
    ]
    sched = CoalescingScheduler(
        warm_engine,
        max_batch=len(scenarios),
        policy=ServicePolicy(retry=None),
    )
    futures = sched.submit_many([
        ForwardRequest(
            spec, sc, t_end, receivers=RECEIVERS, request_id=f"req-{i}",
        )
        for i, sc in enumerate(scenarios)
    ])
    wait(futures)
    for i in (0, 3):
        err = futures[i].exception()
        assert isinstance(err, PoisonedRequestError)
        assert err.request_id == f"req-{i}"
    for i in (1, 2):
        seis = futures[i].result()
        solo = warm_engine.submit(
            spec, scenarios[i], t_end, receivers=RECEIVERS
        )
        assert np.array_equal(seis.data, solo.seismograms.data)
    # culprits in opposite halves: worst case 2B-1 = 7 solves
    stats = sched.stats()
    assert stats["solves"] == 7
    assert stats["poisoned"] == 2
    sched.close()


def test_bisect_disabled_fails_whole_batch(warm_engine):
    spec = make_spec()
    sim = warm_engine.simulation(spec)
    t_end = 12 * sim.dt
    scenarios = [
        poisoned_scenario(spec.L),
        idealized_strike_slip(L=spec.L),
    ]
    sched = CoalescingScheduler(
        warm_engine,
        max_batch=2,
        policy=ServicePolicy(bisect=False, retry=None),
    )
    futures = sched.submit_many([
        ForwardRequest(spec, sc, t_end, receivers=RECEIVERS)
        for sc in scenarios
    ])
    wait(futures)
    # pre-policy blast radius: both futures fail, one solve
    assert all(
        isinstance(f.exception(), PoisonedRequestError) for f in futures
    )
    assert sched.stats()["solves"] == 1
    sched.close()


# ----------------------------------------------- deadlines & shedding


def test_expired_request_rejected_before_solve(warm_engine):
    spec = make_spec()
    sim = warm_engine.simulation(spec)
    t_end = 12 * sim.dt
    sched = CoalescingScheduler(
        warm_engine, max_batch=2, policy=ServicePolicy(retry=None),
    )
    dead, live = sched.submit_many([
        ForwardRequest(
            spec, idealized_strike_slip(L=spec.L), t_end,
            receivers=RECEIVERS, request_id="dead",
            deadline=time.monotonic() - 0.001,
        ),
        ForwardRequest(
            spec, idealized_strike_slip(L=spec.L), t_end,
            receivers=RECEIVERS, request_id="live",
        ),
    ])
    wait([dead, live])
    err = dead.exception()
    assert isinstance(err, DeadlineExceeded)
    assert err.stage == "dispatch"
    assert err.request_id == "dead"
    assert live.result() is not None  # batchmate unharmed
    stats = sched.stats()
    assert stats["deadline_expired"] == 1
    assert stats["solves"] == 1  # the expired request cost nothing
    sched.close()


def test_deadline_checked_again_at_demux():
    def slow(_calls):
        time.sleep(0.25)

    eng = StubEngine(script=slow)
    sched = CoalescingScheduler(
        eng, max_batch=1,
        policy=ServicePolicy(retry=None),
    )
    f = sched.submit(_req(deadline=time.monotonic() + 0.05))
    err = f.exception(timeout=5)
    assert isinstance(err, DeadlineExceeded)
    assert err.stage == "demux"
    sched.close()


def test_policy_mints_deadline_at_submit():
    eng = StubEngine()
    sched = CoalescingScheduler(
        eng, max_batch=4, policy=ServicePolicy(deadline=60.0, retry=None),
    )
    r = _req()
    [f] = sched.submit_many([r])
    assert r.deadline is not None
    assert 55.0 < r.deadline - time.monotonic() <= 60.0
    f.result(timeout=5)
    sched.close()


def test_queue_at_capacity_sheds():
    gate = threading.Event()
    eng = StubEngine(gate=gate)
    sched = CoalescingScheduler(
        eng, max_batch=10,
        policy=ServicePolicy(max_queue_depth=2, retry=None),
    )
    # one request in flight (gated), two queued behind it: depth
    # counts the queued ones only
    f0 = sched.submit(_req())
    _wait_for(lambda: eng.calls == 1)
    f1 = sched.submit(_req())
    f2 = sched.submit(_req())
    with pytest.raises(ShedError) as ei:
        sched.submit(_req())
    assert ei.value.depth == 2
    assert ei.value.limit == 2
    assert sched.stats()["shed"] == 1
    gate.set()
    assert f0.result(timeout=5) == "result-0"
    # the admitted requests were untouched by the shed
    assert f1.result() == "result-0"
    assert f2.result() == "result-1"
    sched.close()


# ------------------------------------------------- retry & breaker


def test_transient_worker_failure_retries():
    def flaky(calls):
        if calls <= 2:
            raise WorkerFailure("transient rank death", ranks=[1])

    eng = StubEngine(script=flaky)
    sched = CoalescingScheduler(
        eng, max_batch=1,
        policy=ServicePolicy(
            retry=RetryPolicy(max_retries=2, backoff=0.001)
        ),
    )
    f = sched.submit(_req())
    assert f.result(timeout=10) == "result-0"
    assert eng.calls == 3
    stats = sched.stats()
    assert stats["retries"] == 2
    assert stats["breaker"] == "closed"
    sched.close()


def test_breaker_trips_fast_fails_and_half_opens():
    failing = [True]

    def script(_calls):
        if failing[0]:
            raise WorkerFailure("pool died", fatal=True)

    eng = StubEngine(script=script)
    sched = CoalescingScheduler(
        eng, max_batch=1,
        policy=ServicePolicy(
            retry=None, breaker_threshold=2, breaker_cooldown=0.2
        ),
    )
    for _ in range(2):
        f = sched.submit(_req())
        with pytest.raises(WorkerFailure):
            f.result(timeout=10)
    # two consecutive pool failures: breaker open, submit fast-fails
    assert sched.stats()["breaker"] == "open"
    with pytest.raises(CircuitOpenError) as ei:
        sched.submit(_req())
    assert ei.value.retry_after > 0.0
    calls_while_open = eng.calls
    # cooldown elapses, the pool heals: the next submission is the
    # probe, and its success closes the breaker
    time.sleep(0.25)
    failing[0] = False
    f = sched.submit(_req())
    assert f.result(timeout=10) == "result-0"
    assert eng.calls == calls_while_open + 1
    assert sched.stats()["breaker"] == "closed"
    sched.close()


def test_breaker_trip_drains_queued_requests():
    gate = threading.Event()

    def script(_calls):
        raise WorkerFailure("pool died", fatal=True)

    eng = StubEngine(script=script, gate=gate)
    sched = CoalescingScheduler(
        eng, max_batch=1,
        policy=ServicePolicy(retry=None, breaker_threshold=1),
    )
    f1 = sched.submit(_req(t_end=1.0))
    _wait_for(lambda: eng.calls == 1)  # f1 is in flight (blocked)
    f2 = sched.submit(_req(t_end=2.0))  # queued behind it
    gate.set()
    with pytest.raises(WorkerFailure):
        f1.result(timeout=10)
    # the single failure tripped the breaker, which drained the queue
    # with fast errors instead of feeding it to a dead pool
    with pytest.raises(CircuitOpenError):
        f2.result(timeout=10)
    assert eng.calls == 1
    sched.close()


# ---------------------------------------------------- close & waits


def test_close_cancels_stuck_futures():
    gate = threading.Event()
    eng = StubEngine(gate=gate)
    sched = CoalescingScheduler(eng, max_batch=1)
    f = sched.submit(_req())
    _wait_for(lambda: eng.calls == 1)
    # the engine is wedged: close's join times out and the pending
    # future is cancelled rather than leaking a forever-block
    sched.close(timeout=0.2)
    with pytest.raises(CancelledError):
        f.result(timeout=5)
    # un-wedge; the scheduler thread must exit without raising on
    # the already-cancelled future
    gate.set()
    sched._thread.join(timeout=5)
    assert not sched._thread.is_alive()


def test_map_wait_timeout():
    gate = threading.Event()
    eng = StubEngine(gate=gate)
    sched = CoalescingScheduler(eng, max_batch=1)
    with pytest.raises(FuturesTimeoutError):
        sched.map_wait([_req()], timeout=0.2)
    gate.set()
    sched.close()


# ------------------------------------------------------ unit pieces


def test_circuit_breaker_state_machine():
    clock = [0.0]
    br = CircuitBreaker(2, 10.0, clock=lambda: clock[0])
    assert br.allow()
    assert br.record_failure() is False
    assert br.record_failure() is True  # threshold reached
    assert br.state == "open"
    assert not br.allow()
    assert br.retry_after() == pytest.approx(10.0)
    clock[0] = 11.0
    assert br.state == "half_open"
    assert br.allow()  # the probe
    assert br.record_failure() is True  # probe failed: reopen
    assert not br.allow()
    clock[0] = 25.0
    assert br.allow()
    br.record_success()
    assert br.state == "closed"
    assert br.allow()


def test_retry_policy_call():
    policy = RetryPolicy(max_retries=2, backoff=0.0)
    attempts = []
    state = {"calls": 0}

    def flaky():
        state["calls"] += 1
        if state["calls"] <= 2:
            raise ValueError("transient")
        return 7

    assert policy.call(
        flaky, retry_on=(ValueError,),
        on_retry=lambda a, e: attempts.append(a),
    ) == 7
    assert state["calls"] == 3
    assert attempts == [1, 2]

    # exhausting the budget re-raises the last failure
    def always():
        state["calls"] += 1
        raise ValueError("permanent")

    state["calls"] = 0
    with pytest.raises(ValueError):
        policy.call(always, retry_on=(ValueError,))
    assert state["calls"] == 3  # 1 try + 2 retries

    # non-matching exceptions propagate immediately
    state["calls"] = 0

    def wrong():
        state["calls"] += 1
        raise KeyError("not transient")

    with pytest.raises(KeyError):
        policy.call(wrong, retry_on=(ValueError,))
    assert state["calls"] == 1
