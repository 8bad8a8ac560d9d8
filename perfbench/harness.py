"""Runs one closed-loop workload: timed set-ups, one warm-up pass,
measured passes, checks outside the timed section, metrics.

A closed-loop workload is an object with

``inputs(seed) -> dict``       generated inputs (untimed)
``setup(inputs) -> state``     cold construction until a pass can start
``setup_reps``                 optional: constructions per timed set-up
``teardown(state)``            stop pools, drop references
``run_pass(state) -> dict``    one fixed unit of work; arrays to check
``work(state, out) -> float``  element-steps one pass advances
``checks(state, out) -> list`` invariants beyond repeat/reference
``layers(state, ctx) -> dict`` per-layer metrics (traced run only)

``serve_open`` is open loop and has its own runner with the same
result shape (``workloads/serve_open.py``).
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench import host
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
REF_DIR = os.path.join(HERE, "reference")

N_SETUPS = 5      # set-ups per run; setup_s is their median: the first
                  # is cold (imports), the second often half-warm
MIN_PASSES = 5    # measured passes per run, whatever --seconds says ...
FLOOR_PASSES = 3  # ... unless the host is so slow that the passes would
                  # run past WALL_FACTOR x --seconds: the driver's time
                  # limit for all its runs is hard, and on the reference
                  # host an hour at 0.55 of nominal speed happens
WALL_FACTOR = 1.7
REF_RTOL = 1e-6   # seed-0 outputs vs the stored reference, relative L2


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Context:
    """What a workload's ``layers`` gets besides its state."""

    tracer: Tracer
    solve_s: float        # median untraced pass of this run
    out: dict             # the warm-up pass's outputs


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)   # name -> value
    samples: dict = field(default_factory=dict)   # name -> sample count
    notes: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(c.ok for c in self.checks)


def rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return float("inf")
    den = float(np.linalg.norm(b))
    return float(np.linalg.norm(a - b)) / (den if den > 0 else 1.0)


def same_outputs(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        np.array_equal(a[k], b[k]) for k in a
    )


def reference_path(workload: str) -> str:
    return os.path.join(REF_DIR, workload + ".npz")


def reference_check(workload: str, seed: int, out: dict) -> Check:
    """Seed 0 is compared with the stored outputs; other seeds have no
    stored outputs and rely on the invariants alone."""
    if seed != 0:
        return Check("reference", True, "skipped (seed != 0)")
    path = reference_path(workload)
    if not os.path.exists(path):
        return Check("reference", False, f"missing {path}")
    with np.load(path) as ref:
        if set(ref.files) != set(out):
            return Check("reference", False,
                         f"keys {sorted(out)} != stored {sorted(ref.files)}")
        worst = max(rel_l2(out[k], ref[k]) for k in out)
    return Check("reference", worst <= REF_RTOL, f"rel L2 {worst:.2e}")


def reference_view(wl, state, out: dict) -> dict:
    """The part of a pass's outputs that is stored as the reference:
    everything, unless the workload keeps only samples of a field."""
    view = getattr(wl, "reference_view", None)
    return view(state, out) if view is not None else out


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def fill_metrics(res: Result, *, measured: dict, trace: bool) -> None:
    """Keep exactly the declared metrics of this mode.  A per-layer
    metric this workload's traced run does not measure prints 0: that
    layer did no work here."""
    if trace:
        res.metrics = {m.name: float(measured.get(m.name, 0.0))
                       for m in PER_LAYER}
    else:
        res.metrics = {m["name"]: float(measured[m["name"]])
                       for m in END_TO_END}


class CorrectedTimer:
    """Times calls and corrects each for the host's speed at that
    moment.  A probe sample is taken before the first call and after
    every call, so call ``i`` sits between samples ``i`` and ``i + 1``;
    its corrected time is wall seconds x NOMINAL_S / (median of samples
    ``i - 1 .. i + 2``).  See ``host.SpeedProbe``."""

    def __init__(self):
        self.probe = host.SpeedProbe()
        self.samples = [self.probe.sample()]
        self.walls = []

    def timed(self, fn, *args):
        """``(result, wall seconds)``."""
        out, dt = timed(fn, *args)
        self.walls.append(dt)
        self.samples.append(self.probe.sample())
        return out, dt

    def corrected(self) -> list:
        """The corrected time of every call so far, in call order."""
        return [
            wall * host.SpeedProbe.NOMINAL_S
            / statistics.median(self.samples[max(0, i - 1):i + 3])
            for i, wall in enumerate(self.walls)
        ]


def run_closed_loop(wl, seed: int, seconds: float, trace: bool) -> Result:
    res = Result(wl.name, seed, trace)
    tracer = Tracer(wl.name, trace)
    deadline = time.perf_counter() + WALL_FACTOR * seconds
    inputs = wl.inputs(seed)
    clock = CorrectedTimer()

    # a set-up of a few milliseconds is timed as ``setup_reps`` of them
    # back to back: alone it is shorter than the probe samples around it
    reps = getattr(wl, "setup_reps", 1)

    def set_up():
        for _ in range(reps - 1):
            wl.teardown(wl.setup(inputs))
        return wl.setup(inputs)

    state = None
    for i in range(N_SETUPS):
        if state is not None:
            wl.teardown(state)
            state = None
            gc.collect()
        with tracer.span("setup", op=i):
            state, _ = clock.timed(set_up)

    try:
        with tracer.span("warmup"):
            out0, warm_s = clock.timed(wl.run_pass, state)
        # a traced run spends half its time on the layer measurements
        budget = seconds / 2 if trace else seconds
        n = max(MIN_PASSES - 1 if trace else MIN_PASSES,
                int(budget // warm_s))
        raw, wrapped = [], []
        repeatable = True
        for i in range(n):
            late = time.perf_counter() + (raw[-1] if raw else warm_s) > deadline
            if late and not trace and i >= FLOOR_PASSES:
                break
            # traced runs alternate plain and span-wrapped passes, so
            # the tracing overhead is a ratio within one run
            wrap = trace and i % 2 == 1
            tr = tracer if wrap else Tracer(wl.name, False)
            with tr.span("pass", op=i):
                out, wall = clock.timed(wl.run_pass, state)
            wrapped.append(wrap)
            raw.append(wall)
            ok = same_outputs(out, out0)
            repeatable &= ok
            res.attempted += 1
            res.failed += 0 if ok else 1
        times = clock.corrected()
        setups = [t / reps for t in times[:N_SETUPS]]
        passes = times[N_SETUPS + 1:]
        plain = [t for t, w in zip(passes, wrapped) if not w]
        traced = [t for t, w in zip(passes, wrapped) if w]
        solve_s = statistics.median(plain)

        res.checks.append(Check("passes bitwise identical", repeatable))
        res.checks.append(reference_check(
            wl.name, seed, reference_view(wl, state, out0)
        ))
        res.checks.extend(wl.checks(state, out0))

        measured = {}
        if trace:
            # layer numbers are plain wall-clock, so their shares are
            # taken of the plain wall-clock pass
            os.makedirs(OUT_DIR, exist_ok=True)
            ctx = Context(tracer, statistics.median(raw), out0)
            measured = wl.layers(state, ctx)
            measured["trace.overhead_frac"] = (
                statistics.median(traced) / solve_s - 1.0
            )
        work = wl.work(state, out0)
    finally:
        wl.teardown(state)
        state = None
        gc.collect()

    if not trace:
        measured = {
            "setup_s": statistics.median(setups),
            "solve_s": solve_s,
            "elem_steps_per_s": work / solve_s,
            "peak_rss_mb": host.peak_rss_mb(),
            # one caller waits for each pass, so the pass is its request
            "request_p50_s": solve_s,
        }
        res.samples = {
            "setup_s": len(setups), "solve_s": len(plain),
            "elem_steps_per_s": len(plain), "peak_rss_mb": 1,
            "request_p50_s": len(plain),
        }
    res.notes = {
        "passes_s": plain + traced, "passes_wall_s": raw,
        "setups_s": setups,
        "setups_wall_s": [t / reps for t in clock.walls[:N_SETUPS]],
        "warmup_wall_s": warm_s,
        "probe_s": clock.samples,
        "host_speed": host.SpeedProbe.NOMINAL_S
        / statistics.median(clock.samples),
        "wall_clock": {"solve_s": statistics.median(raw)},
    }
    fill_metrics(res, measured=measured, trace=trace)
    if trace:
        n_spans = tracer.write(
            os.path.join(OUT_DIR, f"trace-{wl.name}.jsonl")
        )
        res.notes["spans"] = n_spans
        res.notes["self_time_s"] = tracer.self_time_by_name()
    return res
