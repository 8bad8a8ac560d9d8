"""``repro.service.server.serve``: the dispatch rule, without sleeps.

The rule under test is work conservation — a claimed pass is handed to
the scheduler whole (``submit_many``) and is dispatchable at once, a
request that arrives behind a running solve joins its key's queued
group, and no batch is ever wider than ``max_batch``.  None of it needs
a real timer.  The engine is :class:`tests.test_policy.StubEngine`
(scripted, gate-able); ``sleep`` is a fake that records its calls and
ends a ``watch`` loop.
"""

import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro import telemetry
from repro.cli import main
from repro.io.seismogram import Seismograms
from repro.service import CoalescingScheduler, ServicePolicy, ShedError
from repro.service.cache import ArtifactCache
from repro.service.server import serve
from repro.service.spool import Spool
from tests.test_policy import StubEngine, _req, _wait_for

SPEC = {"L": 8000.0, "depth_frac": 0.5, "vs_min": 400.0, "fmax": 0.15,
        "ppw": 10.0, "h_min": 0.0, "max_level": 3}


def spooled(t_end=1.0) -> dict:
    """What ``repro submit`` hands to ``Spool.submit``."""
    return {"spec": SPEC, "scenario": "strike-slip", "t_end": t_end,
            "receivers": [[4000.0, 4000.0, 0.0]]}


class ServeStub(StubEngine):
    """``StubEngine`` plus what ``serve`` reads off a real engine (the
    cache's drain counters, the fault plan) and seismogram-shaped
    results; records every batch width it is handed."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.cache = ArtifactCache(1)
        self.faults = None
        self.widths = []

    def submit_batch(self, spec, scenarios, t_end, *, receivers=None,
                     record="velocity"):
        self.widths.append(len(scenarios))
        super().submit_batch(spec, scenarios, t_end)
        return [
            Seismograms(data=np.full((1, 3, 2), t_end), dt=0.1,
                        kind=record, positions=np.zeros((1, 3)))
            for _ in scenarios
        ]


class FakeSleep:
    """Records the wait ``serve`` asks for once it finds the spool
    idle, and ends the loop there (the way SIGINT would)."""

    def __init__(self):
        self.calls = []

    def __call__(self, seconds):
        self.calls.append(seconds)
        raise KeyboardInterrupt


@pytest.fixture
def rig(tmp_path):
    """A spool, an output directory and a scheduler on a stub engine;
    ``rig.scheduler(...)`` builds the scheduler so a test can choose
    ``max_batch`` / ``policy`` / the engine's gate."""
    made = []

    def scheduler(*, gate=None, **kw):
        engine = ServeStub(gate=gate)
        sched = CoalescingScheduler(engine, **kw)
        made.append(sched)
        return sched

    yield SimpleNamespace(
        spool=Spool(tmp_path / "spool"), out=str(tmp_path / "out"),
        scheduler=scheduler,
    )
    for sched in made:
        if sched.engine.gate is not None:
            sched.engine.gate.set()
        sched.close()


def test_lone_request_does_not_wait_for_the_window(rig):
    rig.spool.submit(spooled())
    sched = rig.scheduler()
    sleep = FakeSleep()
    t0 = time.perf_counter()
    stats = serve(rig.spool, rig.out, sched, sleep=sleep)
    # 30 s at the parent commit: the group sat in a window only the
    # (blocked) serve loop could have added to
    assert time.perf_counter() - t0 < 5.0
    assert sleep.calls == []
    assert (stats.served, stats.failed) == (1, 0)
    assert sched.engine.widths == [1]
    with np.load(rig.out + "/req-000000.npz") as z:
        assert np.array_equal(z["data"], np.full((1, 3, 2), 1.0))
    assert rig.spool.inflight() == []


def test_a_pass_of_cokeyed_requests_is_one_batch(rig):
    for _ in range(3):
        rig.spool.submit(spooled())
    sched = rig.scheduler()
    stats = serve(rig.spool, rig.out, sched, sleep=FakeSleep())
    assert stats.served == 3
    assert sched.engine.widths == [3]


def test_no_batch_is_wider_than_max_batch(rig):
    for _ in range(40):
        rig.spool.submit(spooled())
    sched = rig.scheduler(max_batch=16)
    stats = serve(rig.spool, rig.out, sched, sleep=FakeSleep())
    assert stats.served == 40
    # one B = 40 loop at the parent commit
    assert sched.engine.widths == [16, 16, 8]


def test_two_keys_in_one_pass_are_two_batches_both_at_once(rig):
    for t_end in (1.0, 2.0, 1.0, 2.0):
        rig.spool.submit(spooled(t_end))
    sched = rig.scheduler()
    sleep = FakeSleep()
    t0 = time.perf_counter()
    stats = serve(rig.spool, rig.out, sched, sleep=sleep)
    assert time.perf_counter() - t0 < 5.0 and sleep.calls == []
    assert stats.served == 4
    assert sched.engine.widths == [2, 2]


def test_arrivals_during_a_solve_ride_one_batch(rig):
    gate = threading.Event()
    sched = rig.scheduler(gate=gate)
    engine = sched.engine
    rig.spool.submit(spooled())
    sleep = FakeSleep()
    result = {}
    thread = threading.Thread(
        target=lambda: result.update(stats=serve(
            rig.spool, rig.out, sched, watch=True, poll=0.02, sleep=sleep
        ))
    )
    thread.start()
    _wait_for(lambda: engine.calls == 1)  # pass 1 is solving, gated
    for _ in range(3):
        rig.spool.submit(spooled())
    gate.set()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    # pass 2 claimed all three together; the loop slept only once it
    # found the spool empty, and for the poll interval it was given
    assert engine.widths == [1, 3]
    assert sleep.calls == [0.02]
    assert result["stats"].served == 4


def test_shed_request_is_a_failed_future_retried_next_attempt(rig, capsys):
    for _ in range(3):
        rig.spool.submit(spooled())
    sched = rig.scheduler(policy=ServicePolicy(max_queue_depth=2))
    stats = serve(rig.spool, rig.out, sched, sleep=FakeSleep())
    out = capsys.readouterr().out
    assert "req-000002: attempt 1 failed" in out and "will retry" in out
    assert (stats.served, stats.failed, stats.quarantined) == (3, 0, 0)
    assert sched.engine.widths == [2, 1]
    assert sched.stats()["shed"] == 1


def test_submit_many_reports_rejection_on_the_future(rig):
    gate = threading.Event()
    sched = rig.scheduler(gate=gate, policy=ServicePolicy(max_queue_depth=2))
    futures = sched.submit_many([_req(), _req(), _req()])
    assert isinstance(futures[2].exception(timeout=5.0), ShedError)
    gate.set()
    assert [f.result(timeout=5.0) is not None for f in futures[:2]] == [
        True, True,
    ]


@pytest.mark.parametrize("entry", ["submit", "submit_many"])
def test_ready_group_stays_joinable_behind_a_running_solve(rig, entry):
    gate = threading.Event()
    sched = rig.scheduler(gate=gate)
    engine = sched.engine

    def enqueue(request):
        if entry == "submit":
            return [sched.submit(request)]
        return sched.submit_many([request])

    # a lone submit used to sit out the scheduler's batching window
    first = enqueue(_req(t_end=1.0))
    _wait_for(lambda: engine.calls == 1)  # key 1 is solving, gated
    late = enqueue(_req(t_end=2.0)) + enqueue(_req(t_end=2.0))
    gate.set()
    for f in first + late:
        f.result(timeout=5.0)
    assert engine.widths == [1, 2]


def test_demux_latency_is_timed_where_the_futures_resolve(rig):
    telemetry.disable()
    telemetry.enable()
    try:
        gate = threading.Event()
        sched = rig.scheduler(gate=gate)
        [future] = sched.submit_many([_req()])

        def busy(_f, seconds=0.005):
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < seconds:
                pass

        # runs inside set_result, i.e. inside the demux loop
        future.add_done_callback(busy)
        gate.set()
        future.result(timeout=5.0)
        sched.close()
        reg = telemetry.metrics()
        # a constant 0.2 µs at the parent commit
        assert reg["service.latency.demux"].quantile(0.5) >= 0.005
        assert reg["service.latency.coalesce"].quantile(0.5) < 1.0
    finally:
        telemetry.disable()


def test_cli_max_wait_is_inert(tmp_path, capsys):
    spool, out = str(tmp_path / "spool"), str(tmp_path / "out")
    submit = ["submit", "--spool", spool, "--t-end", "1.0",
              "--receivers", "[[4000, 4000, 0]]"]
    for key, value in SPEC.items():
        submit += ["--" + key.replace("_", "-"), str(value)]
    assert main(submit) == 0
    t0 = time.perf_counter()
    rc = main(["serve", "--spool", spool, "--out-dir", out,
               "--max-wait", "30"])
    assert rc == 0 and time.perf_counter() - t0 < 10.0
    assert "served 1 request(s) (0 failed) in 1 batch(es)" in (
        capsys.readouterr().out
    )
