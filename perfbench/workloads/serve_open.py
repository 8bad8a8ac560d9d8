"""serve_open: an open-loop request stream through the real CLI.

A ``python -m repro.cli serve --watch`` subprocess drains a spool
directory; the generator calls ``repro.cli.main(["submit", ...])``
in-process on a seeded Poisson schedule, whatever the server's state.
Each request is timed from the moment it was *due* to the moment its
``.npz`` becomes visible, so a stall charges every request it delays.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from perfbench import host
from perfbench.harness import (
    OUT_DIR, Check, CorrectedTimer, Result, fill_metrics, reference_check,
)
from perfbench.spans import Tracer

NAME = "serve_open"
N_SETUPS = 3           # server cold starts per run (1.3-2 s each)
#: requests per second offered.  The issue's 10 req/s puts the median
#: request on the steep part of the latency curve (half the arrivals
#: meet a server inside its 0.05 s window or a 0.035 s solve): p50 then
#: ranged over 0.27 of its median across five seeds run back to back
#: and over 0.16 at 7 req/s; at 5 req/s most requests meet an idle
#: server and the range was 0.09 (README, Repeatability)
RATE = 5.0
TIMEOUT = 5.0          # a request unfinished this long after due has failed
POLL_S = 0.02          # the server's spool poll interval
MAX_WAIT_S = 0.05      # its coalescing window
SERVE_FLAGS = ["--watch", "--poll", str(POLL_S), "--max-wait",
               str(MAX_WAIT_S), "--max-batch", "16"]
#: the part of a request's latency that is configured waiting (the
#: window, half a poll interval on average); only the rest scales with
#: the host's speed and is corrected for it
FIXED_WAIT_S = MAX_WAIT_S + POLL_S / 2
N_PROBES = 3           # speed-probe samples on each side of the stream
SPEC = {"L": 8000.0, "depth_frac": 0.5, "vs_min": 400.0, "fmax": 0.5,
        "ppw": 10.0, "h_min": 0.0, "max_level": 4}
T_END = 0.6
SCENARIOS = ("northridge", "strike-slip")
N_RECEIVER_SETS = 4
N_RECEIVERS = 5


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def make_inputs(seed: int, seconds: float) -> dict:
    host.require_cores(2, NAME)
    rng = np.random.default_rng(seed)
    # receiver sets first: they (and the stored reference) must not
    # depend on how many requests --seconds asks for
    L = SPEC["L"]
    sets = []
    for _ in range(N_RECEIVER_SETS):
        xy = rng.uniform(0.125 * L, 0.875 * L, size=(N_RECEIVERS, 2))
        sets.append(np.column_stack([xy, np.zeros(N_RECEIVERS)]))
    n = max(50, int(round(RATE * seconds)))
    # Poisson arrivals, stratified: the gaps are the n mid-quantiles of
    # the exponential distribution in a seeded order, and the scenarios
    # and receiver sets a seeded order of an even mix.  Every seed then
    # offers the same gaps and the same mix, only arranged differently;
    # independent draws moved request_p50_s twice as much from seed to
    # seed as the host did from run to run (README, Repeatability).
    gaps = -np.log1p(-(np.arange(n) + 0.5) / n) / RATE
    due = np.cumsum(rng.permutation(gaps))
    due *= (n / RATE) / due[-1]
    return {
        "due": due,
        "scenario": rng.permutation(np.arange(n) % len(SCENARIOS)),
        "receivers": rng.permutation(np.arange(n) % N_RECEIVER_SETS),
        "receiver_sets": sets,
    }


def expected_outputs(inputs: dict) -> tuple[dict, float]:
    """Seismograms of every (scenario, receiver set) pair from an
    in-process ``Engine.submit``, and the element-steps of one request."""
    from repro.materials import SyntheticBasinModel
    from repro.service import Engine, SimulationSpec
    from repro.sources import idealized_northridge, idealized_strike_slip

    L = SPEC["L"]
    spec = SimulationSpec(
        material=SyntheticBasinModel(
            L=L, depth=SPEC["depth_frac"] * L, vs_min=SPEC["vs_min"]
        ),
        L=L, fmax=SPEC["fmax"], box_frac=(1, 1, SPEC["depth_frac"]),
        points_per_wavelength=SPEC["ppw"], max_level=SPEC["max_level"],
        h_min=SPEC["h_min"],
    )
    scenarios = {"northridge": idealized_northridge(L=L),
                 "strike-slip": idealized_strike_slip(L=L)}
    out = {}
    with Engine() as engine:
        for name, scenario in scenarios.items():
            for r, rec in enumerate(inputs["receiver_sets"]):
                out[f"{name}.{r}"] = engine.submit(
                    spec, scenario, T_END, receivers=rec
                ).seismograms.data
        sim = engine.simulation(spec)
        work = sim.mesh.nelem * int(np.ceil(T_END / sim.dt))
    return out, float(work)


class Server:
    """One ``repro serve`` subprocess on its own spool directory."""

    def __init__(self, tag: str, traced: bool = False):
        self.root = os.path.join(OUT_DIR, f"serve-{os.getpid()}-{tag}")
        self.spool = os.path.join(self.root, "spool")
        self.out = os.path.join(self.root, "out")
        self.log = os.path.join(self.root, "serve.log")
        self.status = os.path.join(self.root, "status.json") if traced else None
        self.proc = None
        self.start_s = None

    def start(self) -> None:
        os.makedirs(self.root)
        cmd = [sys.executable, "-m", "repro.cli", "serve", "--spool",
               self.spool, "--out-dir", self.out, *SERVE_FLAGS]
        if self.status:
            cmd += ["--status-file", self.status]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(host.ROOT, "src"), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        t0 = time.perf_counter()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                cmd, env=env, stdout=log, stderr=subprocess.STDOUT,
                preexec_fn=host.die_with_parent,
            )
        # the serve loop creates its journal directory first thing
        inflight = os.path.join(self.spool, "inflight")
        while not os.path.isdir(inflight):
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited: see {self.log}")
            if time.perf_counter() - t0 > 60:
                raise RuntimeError("repro serve did not start in 60 s")
            time.sleep(0.002)
        self.start_s = time.perf_counter() - t0

    def submit(self, scenario: str, receivers: np.ndarray) -> str:
        """``repro submit`` in-process; the request id is read from the
        command's own output (ids are not the submit ordinal)."""
        from repro import cli

        argv = ["submit", "--spool", self.spool, "--t-end", str(T_END),
                "--scenario", scenario,
                "--receivers", json.dumps(receivers.tolist())]
        for key, value in SPEC.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        words = buf.getvalue().split()
        if code != 0 or len(words) < 2 or words[0] != "spooled":
            raise RuntimeError(f"repro submit failed: {buf.getvalue()!r}")
        return os.path.basename(words[1])[: -len(".json")]

    def npz(self, rid: str) -> str:
        return os.path.join(self.out, rid + ".npz")

    def stop(self) -> None:
        """Interrupt the server (its drain loop exits on SIGINT) and
        wait until it has ended."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def remove(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def cold_start(tag: str, inputs: dict, servers: list,
               traced: bool = False):
    """Server start until its first ``.npz``: process start, imports,
    the cold mesh/solver build and one solve.  The server joins
    ``servers`` before it starts, so whoever holds that list can stop
    and remove it however this call ends."""
    server = Server(tag, traced)
    servers.append(server)
    t0 = time.perf_counter()
    server.start()
    rid = server.submit(SCENARIOS[0], inputs["receiver_sets"][0])
    while not os.path.exists(server.npz(rid)):
        if server.proc.poll() is not None:
            raise RuntimeError(f"repro serve exited: see {server.log}")
        if time.perf_counter() - t0 > 120:
            raise RuntimeError("no warm-up result within 120 s")
        time.sleep(0.002)
    return server


class Watcher(threading.Thread):
    """Notes when each outstanding request's ``.npz`` appears."""

    def __init__(self):
        super().__init__(daemon=True)
        self.lock = threading.Lock()
        self.pending: dict = {}
        self.seen: dict = {}
        self.done = False

    def watch(self, rid: str, path: str) -> None:
        with self.lock:
            self.pending[rid] = path

    def outstanding(self) -> int:
        with self.lock:
            return len(self.pending)

    def run(self) -> None:
        while not self.done:
            with self.lock:
                items = list(self.pending.items())
            for rid, path in items:
                if os.path.exists(path):
                    self.seen[rid] = time.perf_counter()
                    with self.lock:
                        del self.pending[rid]
            time.sleep(0.001)


def run_stream(server: Server, inputs: dict, first: int, last: int,
               tracer: Tracer) -> dict:
    """Offer requests ``first..last`` of the schedule; returns per
    request its id, due time, lateness, submit time and latency (the
    time-out for a request that never finished)."""
    due = inputs["due"][first:last] - (inputs["due"][first - 1] if first else 0.0)
    watcher = Watcher()
    watcher.start()
    rows = []
    t_start = time.perf_counter() + 0.05
    try:
        for i, offset in enumerate(due):
            t_due = t_start + offset
            wait = t_due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            t0 = time.perf_counter()
            k = first + i
            scenario = SCENARIOS[inputs["scenario"][k]]
            rset = int(inputs["receivers"][k])
            rid = server.submit(scenario, inputs["receiver_sets"][rset])
            t1 = time.perf_counter()
            watcher.watch(rid, server.npz(rid))
            rows.append({"id": rid, "due": t_due, "submit_start": t0,
                         "submit_end": t1, "expect": f"{scenario}.{rset}"})
        deadline = t_start + due[-1] + TIMEOUT
        while watcher.outstanding() and time.perf_counter() < deadline:
            time.sleep(0.005)
    finally:
        watcher.done = True
        watcher.join()
    for row in rows:
        seen = watcher.seen.get(row["id"])
        row["finished"] = (
            seen is not None and seen - row["due"] <= TIMEOUT
        )
        row["latency"] = seen - row["due"] if row["finished"] else TIMEOUT
        end = seen if seen is not None else row["due"] + TIMEOUT
        parent = tracer.add("request", row["due"], end, op=row["id"])
        tracer.add("loadgen.late", row["due"], row["submit_start"],
                   parent=parent, op=row["id"])
        tracer.add("cli.submit", row["submit_start"], row["submit_end"],
                   parent=parent, op=row["id"])
        tracer.add("serve", row["submit_end"], end, parent=parent,
                   op=row["id"])
    ends = [watcher.seen.get(r["id"], r["due"] + TIMEOUT) for r in rows]
    return {"rows": rows, "drain_s": max(ends) - t_start}


def verify(server: Server, rows: list, expected: dict, stream: str) -> list:
    """After the server has stopped: every result bitwise equal to the
    in-process solve, each id served exactly once, nothing quarantined.
    Marks the failing rows; returns the checks."""
    with open(server.log) as f:
        served = collections.Counter(
            line.split(":")[0].strip() for line in f
            if line.startswith("  req-") and line.rstrip().endswith(".npz")
        )
    ids = [r["id"] for r in rows]
    wrong = 0
    for row in rows:
        if not row["finished"]:
            continue
        with np.load(server.npz(row["id"])) as z:
            same = np.array_equal(z["data"], expected[row["expect"]])
        if not same or served[row["id"]] != 1:
            row["finished"] = False
            wrong += 1
    quarantined = [f for f in os.listdir(
        os.path.join(server.spool, "quarantine")) if f.startswith("req-")]
    unfinished = sum(1 for r in rows if not r["finished"]) - wrong
    return [
        Check(f"{stream}: every request finished within the time-out",
              unfinished == 0, f"{unfinished} unfinished"),
        Check(f"{stream}: every .npz bitwise == in-process Engine.submit, "
              "served once", wrong == 0, f"{wrong} wrong or duplicated"),
        Check(f"{stream}: request ids unique", len(set(ids)) == len(ids)),
        Check(f"{stream}: quarantine/ empty", not quarantined,
              f"{quarantined}"),
    ]


def run(seed: int, seconds: float, trace: bool) -> Result:
    res = Result(NAME, seed, trace)
    tracer = Tracer(NAME, trace)
    t_run = time.perf_counter()
    inputs = make_inputs(seed, seconds)
    n = len(inputs["due"])
    os.makedirs(OUT_DIR, exist_ok=True)

    servers = []
    measured = {}
    clock = CorrectedTimer()
    try:
        # the generator's own first submit imports repro.cli and builds
        # its first spec key: pay that into a spool no server drains,
        # not into the first timed start (it read 2.2 s against 1.4 s,
        # and the median of two starts is not the median of three)
        idle = Server("idle")
        servers.append(idle)
        idle.submit(SCENARIOS[0], inputs["receiver_sets"][0])

        starts = []
        server = None
        for i in range(N_SETUPS):
            # on a host so slow that two starts took what three should,
            # two must do: the driver's time limit is hard
            if i == 2 and time.perf_counter() - t_run > 0.55 * seconds:
                break
            if server is not None:
                server.stop()
            with tracer.span("setup", op=i):
                server, _ = clock.timed(
                    cold_start, f"setup{i}", inputs, servers
                )
            starts.append(server.start_s)
        setups = clock.corrected()

        # a traced run offers the first half to this plain server and
        # the second half to one that publishes its status file
        half = n // 2 if trace else n
        probes = [clock.probe.sample() for _ in range(N_PROBES)]
        with tracer.span("stream.plain"):
            plain = run_stream(server, inputs, 0, half,
                               tracer if not trace else Tracer(NAME, False))
        probes += [clock.probe.sample() for _ in range(N_PROBES)]
        server.stop()
        streams = [("plain server", server, plain)]
        if trace:
            with tracer.span("setup.traced"):
                traced_server = cold_start("traced", inputs, servers,
                                           traced=True)
            with tracer.span("stream.traced"):
                traced = run_stream(traced_server, inputs, half, n, tracer)
            traced_server.stop()
            streams.append(("traced server", traced_server, traced))

        expected, work = expected_outputs(inputs)
        res.checks.append(reference_check(NAME, seed, expected))
        for label, srv, stream in streams:
            res.checks.extend(verify(srv, stream["rows"], expected, label))
        rows = [r for _, _, s in streams for r in s["rows"]]
        res.attempted = len(rows)
        res.failed = sum(1 for r in rows if not r["finished"])

        lat = [r["latency"] for r in plain["rows"]]
        late = [r["submit_start"] - r["due"] for r in rows]
        if trace:
            measured = traced_layer_metrics(
                traced_server, traced["rows"], lat, starts, late
            )
            # the tail over both servers' requests: the highest
            # percentile with ten of the 50 beyond it
            measured["cli.request_p80_s"] = percentile(
                [r["latency"] for r in rows], 80
            )
    finally:
        for srv in servers:
            srv.stop()
            srv.remove()

    speed = host.SpeedProbe.NOMINAL_S / statistics.median(probes)
    p50_wall = percentile(lat, 50)
    if not trace:
        measured = {
            "setup_s": statistics.median(setups),
            # the whole offered stream, its start to the last .npz: it
            # stays at the schedule's length unless a backlog grows
            "solve_s": plain["drain_s"],
            "elem_steps_per_s": work * n / plain["drain_s"],
            "peak_rss_mb": host.peak_rss_mb(),
            "request_p50_s": FIXED_WAIT_S + (p50_wall - FIXED_WAIT_S) * speed,
        }
        res.samples = {
            "setup_s": len(setups), "solve_s": 1, "elem_steps_per_s": 1,
            "peak_rss_mb": 1, "request_p50_s": n,
        }
    res.notes = {
        "setups_s": setups, "setups_wall_s": clock.walls,
        "requests": n, "rate_per_s": RATE,
        "late_s_p80": percentile(late, 80),
        "probe_s": clock.samples + probes, "host_speed": speed,
        "wall_clock": {"setup_s": statistics.median(clock.walls),
                       "request_p50_s": p50_wall},
    }
    fill_metrics(res, measured=measured, trace=trace)
    if trace:
        res.notes["spans"] = tracer.write(
            os.path.join(OUT_DIR, f"trace-{NAME}.jsonl")
        )
        res.notes["self_time_s"] = tracer.self_time_by_name()
    return res


def traced_layer_metrics(server: Server, rows: list, plain_lat: list,
                         starts: list, late: list) -> dict:
    """Service and CLI layer numbers: the traced server's own latency
    histograms next to what the generator saw from outside."""
    with open(server.status) as f:
        status = json.load(f)
    hist = status["latency"]
    lat = [r["latency"] for r in rows]
    submit = [r["submit_end"] - r["submit_start"] for r in rows]
    p50 = percentile(lat, 50)
    sizes = [os.path.getsize(server.npz(r["id"]))
             for r in rows if r["finished"]]
    m = {f"service.{stage}_s_p50": hist[stage]["p50"]
         for stage in ("queue", "coalesce", "solve", "demux", "total")}
    m.update({
        "service.mean_batch": status["scheduler"]["mean_batch"],
        "cli.serve_start_s": statistics.median(starts),
        "cli.submit_s_first10": statistics.median(submit[:10]),
        "cli.submit_s_last10": statistics.median(submit[-10:]),
        # poll, claim rename, JSON parse, .npz write, retire
        "cli.outside_service_s_p50": p50 - hist["total"]["p50"],
        "cli.npz_kb": statistics.mean(sizes) / 1e3 if sizes else 0.0,
        "loadgen.late_s_p80": percentile(late, 80),
        "trace.overhead_frac": p50 / percentile(plain_lat, 50) - 1.0,
    })
    return m
