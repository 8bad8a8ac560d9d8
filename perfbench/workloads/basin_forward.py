"""basin_forward: the paper's forward problem on a wavelength-adapted
octree mesh (19,261 elements, 5.8 % hanging nodes), serial loop."""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from perfbench.harness import OUT_DIR, Check, timed
from perfbench.workloads import kernels

L = 8000.0
FMAX = 0.8
MAX_LEVEL = 6
BOX = (1, 1, 0.5)
DAMPING = 0.02
STEPS = 150
N_RECEIVERS = 8


def material():
    from repro.materials import SyntheticBasinModel

    return SyntheticBasinModel(L=L, depth=0.5 * L, vs_min=400.0)


def seeded_receivers(rng, n: int) -> np.ndarray:
    """Free-surface positions away from the absorbing sides."""
    xy = rng.uniform(0.125 * L, 0.875 * L, size=(n, 2))
    return np.column_stack([xy, np.zeros(n)])


def seeded_scenario(rng):
    """A Northridge-like thrust whose slip and hypocentre the seed
    picks; the fault geometry, and so the work, stay fixed."""
    from repro.sources import idealized_northridge

    return idealized_northridge(
        L=L,
        slip=float(rng.uniform(1.0, 2.0)),
        hypo_strike_frac=float(rng.uniform(0.1, 0.9)),
        hypo_dip_frac=float(rng.uniform(0.1, 0.9)),
    )


class BasinForward:
    name = "basin_forward"

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        return {"receivers": seeded_receivers(rng, N_RECEIVERS),
                "scenario": seeded_scenario(rng)}

    def setup(self, inputs: dict) -> dict:
        from repro.core.simulation import ForwardSimulation

        sim = ForwardSimulation(
            material(), L=L, fmax=FMAX, box_frac=BOX,
            max_level=MAX_LEVEL, damping_ratio=DAMPING,
        )
        # half-step offset: ceil(t_end / dt) is STEPS whatever the roundoff
        return {"sim": sim, "t_end": (STEPS - 0.5) * sim.dt, **inputs}

    def teardown(self, state: dict) -> None:
        state.clear()

    def run_pass(self, state: dict) -> dict:
        result = state["sim"].run(
            state["scenario"], state["t_end"], receivers=state["receivers"]
        )
        return {"seismograms": result.seismograms.data}

    def work(self, state: dict, out: dict) -> float:
        return float(state["sim"].mesh.nelem * STEPS)

    def checks(self, state: dict, out: dict) -> list:
        data = out["seismograms"]
        return [Check(
            "seismograms finite and non-zero",
            bool(np.all(np.isfinite(data)) and np.abs(data).max() > 0),
            f"shape {data.shape}",
        )]

    # ------------------------------------------------------------ layers

    def layers(self, state: dict, ctx) -> dict:
        from repro import telemetry
        from repro.mesh.hanging import build_constraints
        from repro.mesh.hexmesh import extract_mesh, wavelength_target
        from repro.octree.balance import balance_octree
        from repro.octree.linear_octree import build_adaptive_octree
        from repro.solver.checkpoint import CheckpointManager
        from repro.solver.wave_solver import ElasticWaveSolver

        tr = ctx.tracer
        m = {}
        mat = material()

        # the ForwardSimulation constructor, one public call at a time
        with tr.span("octree.build"):
            t0 = time.perf_counter()
            target = wavelength_target(
                lambda p: mat.query(p)[0], L=L, fmax=FMAX
            )
            tree = balance_octree(build_adaptive_octree(
                target, max_level=MAX_LEVEL, box_frac=BOX
            ))
            m["octree.build_s"] = time.perf_counter() - t0
        with tr.span("mesh.extract"):
            t0 = time.perf_counter()
            mesh = extract_mesh(tree, L=L, box_frac=BOX)
            cons = build_constraints(tree, mesh)
            m["mesh.extract_s"] = time.perf_counter() - t0
        with tr.span("solver.construct"):
            _, m["solver.construct_s"] = timed(lambda: ElasticWaveSolver(
                mesh, tree, mat, damping_ratio=DAMPING,
                damping_band=(0.1 * FMAX, FMAX), constraints=cons,
            ))
        m["octree.leaves"] = len(tree)
        m["mesh.elements"] = mesh.nelem
        m["mesh.hanging_frac"] = cons.n_hanging / mesh.nnode
        del tree, mesh, cons

        sim = state["sim"]
        m.update(kernels.host_references(tr))
        m.update(kernels.matvec_metrics(sim.solver.K, tr, m))
        m["solver.step_s"] = ctx.solve_s / STEPS
        m["solver.kernel_share"] = (
            STEPS * m["backend.matvec_s"] / ctx.solve_s
        )

        # one durable snapshot of the leapfrog restart pair
        u = np.zeros((sim.mesh.nnode, 3))
        ck_dir = os.path.join(OUT_DIR, f"ckpt-{os.getpid()}")
        mgr = CheckpointManager(ck_dir, 1)
        try:
            times = []
            for k in range(3):
                with tr.span("solver.checkpoint", op=k):
                    path, dt = timed(
                        mgr.save, k, {"u_prev": u, "u": u}, {"next_k": k + 1}
                    )
                times.append(dt)
            m["solver.checkpoint_s"] = statistics.median(times)
            m["solver.checkpoint_mb"] = os.path.getsize(path) / 1e6
        finally:
            for name in os.listdir(ck_dir):
                os.remove(os.path.join(ck_dir, name))
            os.rmdir(ck_dir)

        # the same pass with the program's own telemetry switched on
        telemetry.enable()
        try:
            with tr.span("pass.telemetry"):
                _, dt = timed(self.run_pass, state)
        finally:
            telemetry.disable()
            telemetry.reset()
        m["telemetry.enabled_overhead_frac"] = dt / ctx.solve_s - 1.0
        return m
