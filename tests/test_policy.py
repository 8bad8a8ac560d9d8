"""Service resilience policy: the failure paths, pinned.

What PR 10 guarantees, each with a test:

* **Poison isolation** — a coalesced batch with 1 (or 2) NaN-poisoned
  members fails *only* the culprits with
  :class:`PoisonedRequestError`; every innocent is served with bits
  identical to a solo run, and the bisection uses at most the log₂
  solve bound.
* **Admission control** — a bounded queue sheds the overflow requests
  with :class:`ShedError` before anything is solved.
* **Deadlines** — a request that ages out in the queue is rejected at
  dispatch (no solver time spent); one whose batch outlives it is
  rejected at demux.
"""

import time

import numpy as np
import pytest

from repro.materials import HomogeneousMaterial, LayeredMaterial
from repro.resilience.health import NumericalHealthError
from repro.service import (
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
    before touching the script — the hook the serve tests use to hold
    a pass in flight while requests arrive behind it."""

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


def _solve_all(sched, requests) -> list:
    """``sched.solve(requests)`` drained into ``(result, error)`` per
    request, in request order."""
    outcomes = [None] * len(requests)
    for i, result, err in sched.solve(requests):
        outcomes[i] = (result, err)
    return outcomes


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
        policy=ServicePolicy(),
    )
    outcomes = _solve_all(sched, [
        ForwardRequest(
            spec, sc, t_end, receivers=RECEIVERS, request_id=f"req-{i}",
        )
        for i, sc in enumerate(scenarios)
    ])
    # the culprit fails alone, structurally
    _, err = outcomes[0]
    assert isinstance(err, PoisonedRequestError)
    assert err.request_id == "req-0"
    assert isinstance(err.__cause__, NumericalHealthError)
    # every innocent is served bitwise-identical to a solo run
    for i in (1, 2, 3):
        seis, err = outcomes[i]
        assert err is None
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
        policy=ServicePolicy(),
    )
    outcomes = _solve_all(sched, [
        ForwardRequest(
            spec, sc, t_end, receivers=RECEIVERS, request_id=f"req-{i}",
        )
        for i, sc in enumerate(scenarios)
    ])
    for i in (0, 3):
        _, err = outcomes[i]
        assert isinstance(err, PoisonedRequestError)
        assert err.request_id == f"req-{i}"
    for i in (1, 2):
        seis, err = outcomes[i]
        assert err is None
        solo = warm_engine.submit(
            spec, scenarios[i], t_end, receivers=RECEIVERS
        )
        assert np.array_equal(seis.data, solo.seismograms.data)
    # culprits in opposite halves: worst case 2B-1 = 7 solves
    stats = sched.stats()
    assert stats["solves"] == 7
    assert stats["poisoned"] == 2
    sched.close()


# ----------------------------------------------- deadlines & shedding


def test_expired_request_rejected_before_solve(warm_engine):
    spec = make_spec()
    sim = warm_engine.simulation(spec)
    t_end = 12 * sim.dt
    sched = CoalescingScheduler(
        warm_engine, max_batch=2, policy=ServicePolicy(),
    )
    dead, live = _solve_all(sched, [
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
    _, err = dead
    assert isinstance(err, DeadlineExceeded)
    assert err.stage == "dispatch"
    assert err.request_id == "dead"
    assert live[0] is not None and live[1] is None  # batchmate unharmed
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
        policy=ServicePolicy(),
    )
    [(_, err)] = _solve_all(sched, [_req(deadline=time.monotonic() + 0.05)])
    assert isinstance(err, DeadlineExceeded)
    assert err.stage == "demux"
    sched.close()


def test_policy_mints_deadline_at_submit():
    eng = StubEngine()
    sched = CoalescingScheduler(
        eng, max_batch=4, policy=ServicePolicy(deadline=60.0),
    )
    r = _req()
    assert sched.map_wait([r]) == ["result-0"]
    assert r.deadline is not None
    assert 55.0 < r.deadline - time.monotonic() <= 60.0
    sched.close()


def test_queue_at_capacity_sheds():
    eng = StubEngine()
    sched = CoalescingScheduler(
        eng, max_batch=10,
        policy=ServicePolicy(max_queue_depth=2),
    )
    # the request at position i sees the i admitted ahead of it: two
    # fit, the third and fourth are shed — first, before any solve
    outcomes = list(sched.solve([_req(), _req(), _req(), _req()]))
    assert [i for i, _, _ in outcomes[:2]] == [2, 3]
    for _, result, err in outcomes[:2]:
        assert result is None and isinstance(err, ShedError)
        assert (err.depth, err.limit) == (2, 2)
    assert sched.stats()["shed"] == 2
    # the admitted requests were untouched by the shed: one batch
    assert outcomes[2:] == [(0, "result-0", None), (1, "result-1", None)]
    assert eng.calls == 1
    with pytest.raises(ShedError):
        sched.map_wait([_req(), _req(), _req()])
    sched.close()
