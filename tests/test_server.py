"""``repro.service.server.serve``: the dispatch rule, without sleeps.

The rule under test is work conservation — a claimed pass is handed to
the scheduler whole (one ``solve`` call) and dispatches at once, what
arrives behind a running solve is the next pass, and no batch is ever
wider than ``max_batch``.  None of it needs a real timer.  The engine
is :class:`tests.test_policy.StubEngine` (scripted, gate-able);
``sleep`` is a fake that records its calls and ends a ``watch`` loop.
"""

import os
import stat
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro import durable, telemetry
from repro.cli import _serve_status_payload, main
from repro.io.seismogram import Seismograms
from repro.service import CoalescingScheduler, ServicePolicy, ShedError
from repro.service import spool as spool_mod
from repro.service.cache import ArtifactCache
from repro.service.server import ServeStats, serve
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


def test_status_after_a_pass_counts_what_arrived_behind_it(rig):
    gate = threading.Event()
    sched = rig.scheduler(gate=gate)
    engine = sched.engine
    rig.spool.submit(spooled())
    tally, published = ServeStats(), []
    thread = threading.Thread(
        target=lambda: serve(
            rig.spool, rig.out, sched, watch=True, poll=0.02, stats=tally,
            sleep=FakeSleep(), publish=lambda: published.append(
                _serve_status_payload(rig.spool, engine, sched, tally)
            ),
        )
    )
    thread.start()
    _wait_for(lambda: engine.calls == 1)  # pass 1 is solving, gated
    rig.spool.submit(spooled())
    gate.set()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    # pass 1's status sees the request spooled behind it (a queue that
    # was always empty by publish time at the parent commit); pass 2
    # claimed and served it
    assert [p["pending"] for p in published] == [1, 0, 0]
    assert engine.widths == [1, 1]


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
    # a shed request is an outcome of the call, not an exception out of
    # it: the caller keeps its handle on the rest
    sched = rig.scheduler(policy=ServicePolicy(max_queue_depth=2))
    outcomes = {i: (seis, err)
                for i, seis, err in sched.solve([_req(), _req(), _req()])}
    assert outcomes[2][0] is None and isinstance(outcomes[2][1], ShedError)
    assert [outcomes[i][0] is not None and outcomes[i][1] is None
            for i in (0, 1)] == [True, True]


def test_demux_latency_is_timed_where_the_futures_resolve(rig):
    telemetry.disable()
    telemetry.enable()
    try:
        sched = rig.scheduler()
        for _ in sched.solve([_req()]):
            # the caller's handling of a result is part of the demux
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.005:
                pass
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


def test_service_traffic_starts_no_thread(tmp_path, monkeypatch, capsys):
    """The scheduler solves in its caller's thread: ``repro serve`` and
    ``map_wait`` work with thread creation switched off."""

    def no_threads(thread):
        raise AssertionError(f"service traffic started {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", no_threads)
    spool, out = str(tmp_path / "spool"), tmp_path / "out"
    submit = ["submit", "--spool", spool, "--t-end", "1.0",
              "--receivers", "[[4000, 4000, 0]]"]
    for key, value in SPEC.items():
        submit += ["--" + key.replace("_", "-"), str(value)]
    assert main(submit) == 0
    assert main(["serve", "--spool", spool, "--out-dir", str(out)]) == 0
    assert (out / "req-000000.npz").exists()
    sched = CoalescingScheduler(StubEngine())
    assert sched.map_wait([_req(), _req()]) == ["result-0", "result-1"]


class FreeSpy:
    """Stands in for ``os`` inside ``repro.service.spool`` and
    ``repro.durable``: records every rename or delete that would free
    a data block — one that hits an existing, non-empty file no other
    link keeps (an unlink of a second link frees nothing)."""

    #: call -> position of the path whose old contents it drops
    TARGET = {"replace": 1, "rename": 1, "remove": 0, "unlink": 0}

    def __init__(self):
        self.frees = []

    def __getattr__(self, name):
        real = getattr(os, name)
        if name not in self.TARGET:
            return real

        def call(*args, **kw):
            path = args[self.TARGET[name]]
            try:
                st = os.stat(path)
            except FileNotFoundError:
                st = None
            if st is not None and st.st_size > 0 and st.st_nlink == 1:
                self.frees.append((name, os.path.basename(path)))
            return real(*args, **kw)

        return call


def test_a_served_request_frees_no_disk_block(rig, monkeypatch):
    # freeing a block costs ~45 ms per call on an ext4 ``discard``
    # mount; at the parent commit every submit replaced the ``next-id``
    # hint and every retire deleted the fsynced ``.attempts`` sidecar
    spy = FreeSpy()
    monkeypatch.setattr(spool_mod, "os", spy)
    monkeypatch.setattr(durable, "os", spy)
    hint = os.path.join(rig.spool.root, "next-id")
    inodes = []
    for _ in range(5):
        rig.spool.submit(spooled())
        inodes.append(os.stat(hint).st_ino)
    stats = serve(rig.spool, rig.out, rig.scheduler(), sleep=FakeSleep())
    assert (stats.served, stats.failed) == (5, 0)
    assert spy.frees == []
    assert len(set(inodes)) == 1
    with open(hint) as f:
        assert f.read() == "5"
    # each sidecar retired next to its request, its count on record
    done = sorted(os.listdir(rig.spool.done_dir))
    assert done == sorted(
        f"req-{i:06d}.json{ext}" for i in range(5) for ext in ("", ".attempts")
    )
    for i in range(5):
        path = os.path.join(rig.spool.done_dir, f"req-{i:06d}.json.attempts")
        with open(path) as f:
            assert f.read() == "1"


# ----------------------------------------------------------- doorbell


def watching(rig, sched, poll, served=1):
    """``serve(watch=True, poll=poll)`` in a thread that ends the loop
    (the way SIGINT would) once ``served`` requests are out; returns
    the thread and an event set after the server's first (idle) pass."""
    tally, idle = ServeStats(), threading.Event()

    def publish():
        idle.set()
        if tally.served >= served:
            raise KeyboardInterrupt

    thread = threading.Thread(target=lambda: serve(
        rig.spool, rig.out, sched, watch=True, poll=poll, stats=tally,
        publish=publish,
    ))
    thread.start()
    assert idle.wait(10.0)
    return thread


def test_watch_wakes_when_a_request_is_published(rig):
    sched = rig.scheduler()
    thread = watching(rig, sched, poll=30.0)
    t0 = time.perf_counter()
    rig.spool.submit(spooled())
    # 30 s at the parent commit: the idle server slept out its poll
    _wait_for(lambda: os.path.exists(rig.out + "/req-000000.npz"),
              timeout=2.0)
    elapsed = time.perf_counter() - t0
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert elapsed < 2.0 and sched.engine.widths == [1]


def test_a_missed_ring_is_served_within_poll(rig, monkeypatch):
    monkeypatch.setattr(Spool, "ring", lambda self: None)
    sched = rig.scheduler()
    thread = watching(rig, sched, poll=0.3)
    rig.spool.submit(spooled())
    _wait_for(lambda: os.path.exists(rig.out + "/req-000000.npz"),
              timeout=2.0)
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert sched.engine.widths == [1]


def test_submit_never_blocks_or_raises_on_the_doorbell(rig):
    def timed_submit():
        t0 = time.perf_counter()
        rig.spool.submit(spooled())
        assert time.perf_counter() - t0 < 1.0

    timed_submit()  # no server yet: no FIFO
    rig.spool.recover()
    rw = rig.spool._bell_fds[1]
    with pytest.raises(BlockingIOError):  # fill the pipe
        while True:
            os.write(rw, b"\0" * 4096)
    timed_submit()  # full pipe: EAGAIN
    rig.spool.close()
    timed_submit()  # FIFO, but no reader: ENXIO
    assert rig.spool.pending() == [f"req-{i:06d}.json" for i in range(3)]


def test_doorbell_is_never_a_request_and_survives_a_restart(rig):
    rig.spool.recover()
    bell = os.path.join(rig.spool.root, "doorbell")
    inode = os.stat(bell).st_ino
    assert stat.S_ISFIFO(os.stat(bell).st_mode)
    for _ in range(2):
        rig.spool.submit(spooled())
    assert rig.spool.pending() == ["req-000000.json", "req-000001.json"]
    rig.spool.claim()
    assert rig.spool.inflight() == ["req-000000.json", "req-000001.json"]
    # the id probe counts requests only
    os.remove(os.path.join(rig.spool.root, "next-id"))
    assert rig.spool.submit(spooled()) == "req-000002"
    rig.spool.close()
    restarted = Spool(rig.spool.root)
    restarted.recover()
    try:
        assert os.stat(bell).st_ino == inode
        assert restarted.pending() == ["req-000002.json"]
        restarted.ring()
        t0 = time.perf_counter()
        restarted.wait(30.0)
        assert time.perf_counter() - t0 < 1.0
    finally:
        restarted.close()


def test_no_fifo_falls_back_to_sleeping_out_the_poll(rig, monkeypatch):
    def no_fifos(path, mode=0o666):
        raise PermissionError(path)

    monkeypatch.setattr(os, "mkfifo", no_fifos)
    rig.spool.recover()
    assert rig.spool._bell_fds is None
    assert rig.spool.submit(spooled()) == "req-000000"
    t0 = time.perf_counter()
    rig.spool.wait(0.05)
    assert time.perf_counter() - t0 >= 0.05
    stats = serve(rig.spool, rig.out, rig.scheduler(), sleep=FakeSleep())
    assert stats.served == 1
