"""ensemble_batch: 16 rupture scenarios of one basin through
``Engine.submit_batch`` (5,632 elements x B=16), the multi-RHS use of
the kernel layer."""

from __future__ import annotations

import os
import shutil
import statistics
import time

import numpy as np

from perfbench.harness import OUT_DIR, Check, timed
from perfbench.workloads import kernels
from perfbench.workloads.basin_forward import (
    BOX, DAMPING, L, material, seeded_receivers, seeded_scenario,
)

FMAX = 0.5
MAX_LEVEL = 5
STEPS = 20
BATCH = 16
N_RECEIVERS = 8
SOLO_COLUMNS = (0, 11)   # columns re-run solo for the bitwise check


def make_spec():
    from repro.service import SimulationSpec

    return SimulationSpec(
        material=material(), L=L, fmax=FMAX, box_frac=BOX,
        max_level=MAX_LEVEL, damping_ratio=DAMPING,
    )


class EnsembleBatch:
    name = "ensemble_batch"

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        return {
            "receivers": seeded_receivers(rng, N_RECEIVERS),
            "scenarios": [seeded_scenario(rng) for _ in range(BATCH)],
        }

    def setup(self, inputs: dict) -> dict:
        from repro.service import Engine

        spec = make_spec()
        engine = Engine()
        sim = engine.simulation(spec)   # cold: nothing cached yet
        return {"engine": engine, "spec": spec, "sim": sim,
                "t_end": (STEPS - 0.5) * sim.dt, **inputs}

    def teardown(self, state: dict) -> None:
        if "engine" in state:
            state["engine"].close()
        state.clear()

    def run_pass(self, state: dict) -> dict:
        seis = state["engine"].submit_batch(
            state["spec"], state["scenarios"], state["t_end"],
            receivers=state["receivers"],
        )
        return {"seismograms": np.stack([s.data for s in seis])}

    def work(self, state: dict, out: dict) -> float:
        return float(state["sim"].mesh.nelem * STEPS * BATCH)

    def _solo(self, state: dict, b: int) -> np.ndarray:
        return state["engine"].submit(
            state["spec"], state["scenarios"][b], state["t_end"],
            receivers=state["receivers"],
        ).seismograms.data

    def checks(self, state: dict, out: dict) -> list:
        data = out["seismograms"]
        same = all(
            np.array_equal(self._solo(state, b), data[b])
            for b in SOLO_COLUMNS
        )
        return [
            Check(f"columns {SOLO_COLUMNS} bitwise == Engine.submit solo",
                  same),
            Check("seismograms finite and non-zero",
                  bool(np.all(np.isfinite(data)) and np.abs(data).max() > 0),
                  f"shape {data.shape}"),
        ]

    # ------------------------------------------------------------ layers

    def layers(self, state: dict, ctx) -> dict:
        from repro.service import CoalescingScheduler, Engine, ForwardRequest

        tr = ctx.tracer
        m = {}
        spec, engine, sim = state["spec"], state["engine"], state["sim"]

        # artifact cache: cold build, memory hit, fresh engine on disk
        disk = os.path.join(OUT_DIR, f"cache-{os.getpid()}")
        try:
            eng = Engine(disk_dir=disk)
            with tr.span("service.cache_cold"):
                _, m["service.cache_cold_s"] = timed(eng.simulation, spec)
            with tr.span("service.cache_warm"):
                m["service.cache_warm_s"] = statistics.median(
                    timed(eng.simulation, spec)[1] for _ in range(20)
                )
            with tr.span("service.cache_disk"):
                _, m["service.cache_disk_s"] = timed(
                    Engine(disk_dir=disk).simulation, spec
                )
        finally:
            shutil.rmtree(disk, ignore_errors=True)
        with tr.span("service.spec_key"):
            m["service.spec_key_s"] = statistics.median(
                timed(lambda: make_spec().key)[1] for _ in range(20)
            )

        m.update(kernels.host_references(tr))
        m.update(kernels.matvec_metrics(sim.solver.K, tr, m))
        m.update(kernels.matmat_metrics(sim.solver.K, tr, m))
        m["solver.batch_step_s"] = ctx.solve_s / STEPS
        m["solver.batch_kernel_share"] = (
            STEPS * BATCH * m["backend.matmat16_s_per_col"] / ctx.solve_s
        )

        with tr.span("solo x16"):
            t0 = time.perf_counter()
            for b in range(BATCH):
                self._solo(state, b)
            solo16 = time.perf_counter() - t0
        m["solver.batch_speedup"] = solo16 / ctx.solve_s

        # the same 16 requests through the coalescing scheduler: what
        # queueing, the batching window and demux add to a direct call
        requests = [
            ForwardRequest(spec, sc, state["t_end"],
                           receivers=state["receivers"])
            for sc in state["scenarios"]
        ]
        with CoalescingScheduler(engine, max_batch=BATCH) as sched:
            with tr.span("service.map_wait"):
                _, via_sched = timed(sched.map_wait, requests)
        m["service.sched_overhead"] = via_sched / ctx.solve_s - 1.0
        return m
