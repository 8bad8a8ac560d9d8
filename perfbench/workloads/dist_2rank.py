"""dist_2rank: the distributed solver on two worker processes (32^3
uniform mesh, recursive-coordinate-bisection partition), the pool kept
warm across passes."""

from __future__ import annotations

import statistics

import numpy as np

from perfbench import host
from perfbench.harness import Check, timed
from perfbench.workloads import kernels

N = 32               # elements per edge (power of two)
BOX_L = 1000.0
RANKS = 2
STEPS = 300
PREFIX = 20          # steps of the distributed-vs-serial check
SERIAL_RTOL = 1e-12
N_SAMPLES = 64


def homogeneous():
    from repro.materials import HomogeneousMaterial

    return HomogeneousMaterial(vs=1000.0, vp=1800.0, rho=2000.0)


class PointForce:
    """Gaussian point force; a module-level class, so the worker
    processes can unpickle it."""

    def __init__(self, node: int, nnode: int, amplitude: float):
        self.node, self.nnode, self.amplitude = node, nnode, amplitude

    def __call__(self, t: float, out=None):
        b = np.zeros((self.nnode, 3)) if out is None else out
        b.fill(0.0)
        b[self.node, 2] = self.amplitude * np.exp(-(((t - 0.05) / 0.02) ** 2))
        return b


def build_mesh():
    from repro.mesh import extract_mesh
    from repro.octree import build_adaptive_octree

    tree = build_adaptive_octree(
        lambda c, s: np.full(len(c), 1.0 / N), max_level=int(np.log2(N))
    )
    return tree, extract_mesh(tree, L=BOX_L)


class Dist2Rank:
    name = "dist_2rank"

    def inputs(self, seed: int) -> dict:
        host.require_cores(RANKS, self.name)
        rng = np.random.default_rng(seed)
        nnode = (N + 1) ** 3
        return {
            # a node in the middle third of the node numbering: interior
            "node": int(rng.integers(nnode // 3, 2 * nnode // 3)),
            "amplitude": float(rng.uniform(0.5e9, 2e9)),
            "sample": np.sort(rng.choice(nnode, N_SAMPLES, replace=False)),
        }

    def setup(self, inputs: dict) -> dict:
        from repro.mesh import rcb_partition
        from repro.parallel import DistributedWaveSolver, ProcWorld

        tree, mesh = build_mesh()
        parts = rcb_partition(mesh.elem_centers, RANKS)
        world = ProcWorld(RANKS)
        state = {"world": world}
        try:
            host.bind_pool(world)
            solver = DistributedWaveSolver(mesh, homogeneous(), parts, world)
            force = PointForce(inputs["node"], mesh.nnode,
                               inputs["amplitude"])
            # first contact: the workers import, receive their payload
            # and answer; after this a pass can start
            solver.run(force, 0.5 * solver.dt)
        except BaseException:
            world.close()
            raise
        state.update(tree=tree, mesh=mesh, solver=solver, force=force,
                     **inputs)
        return state

    def teardown(self, state: dict) -> None:
        if "world" in state:
            state["world"].close()
        state.clear()

    def _run(self, state: dict, nsteps: int) -> np.ndarray:
        solver = state["solver"]
        return solver.run(state["force"], (nsteps - 0.5) * solver.dt)

    def run_pass(self, state: dict) -> dict:
        return {"final": self._run(state, STEPS)}

    def reference_view(self, state: dict, out: dict) -> dict:
        u = out["final"]
        return {"samples": u[state["sample"]],
                "norm": np.array([np.linalg.norm(u)])}

    def work(self, state: dict, out: dict) -> float:
        return float(state["mesh"].nelem * STEPS)

    def _serial(self, state: dict):
        from repro.solver import ElasticWaveSolver

        return ElasticWaveSolver(
            state["mesh"], state["tree"], homogeneous(), stacey_c1=False
        )

    def _serial_state(self, serial, state: dict, nsteps: int) -> np.ndarray:
        """u^nsteps from the serial solver: its callback sees the state
        before each update, so march one step further to observe it."""
        seen = {}

        def grab(k, t, u):
            if k == nsteps:
                seen["u"] = u.copy()

        serial.run(state["force"], (nsteps + 0.5) * serial.dt, callback=grab)
        return seen["u"]

    def checks(self, state: dict, out: dict) -> list:
        serial = self._serial(state)
        u_ref = self._serial_state(serial, state, PREFIX)
        u = self._run(state, PREFIX)
        err = float(np.abs(u - u_ref).max() / np.abs(u_ref).max())
        final = out["final"]
        return [
            Check("same dt as the serial solver",
                  serial.dt == state["solver"].dt),
            Check(f"first {PREFIX} steps == serial ElasticWaveSolver",
                  err <= SERIAL_RTOL, f"max rel err {err:.2e}"),
            Check("final state finite and non-zero",
                  bool(np.all(np.isfinite(final)) and np.abs(final).max() > 0)),
        ]

    # ------------------------------------------------------------ layers

    def layers(self, state: dict, ctx) -> dict:
        from repro import telemetry
        from repro.parallel import ProcWorld, measure_transport

        tr = ctx.tracer
        solver, world = state["solver"], state["world"]
        m = {}

        # one pass with the solver's own per-rank phase timeline
        before = world.total_stats()
        telemetry.enable()
        try:
            with tr.span("pass.timeline"):
                _, pass_s = timed(self._run, state, STEPS)
            summary = solver.last_timeline.summary()
        finally:
            telemetry.disable()
            telemetry.reset()
        after = world.total_stats()
        ranks = summary["per_rank"]
        m["parallel.compute_s_max"] = max(r["compute_seconds"] for r in ranks)
        m["parallel.exchange_s_max"] = max(r["send_seconds"] for r in ranks)
        m["parallel.wait_s_max"] = max(r["recv_seconds"] for r in ranks)
        m["parallel.wait_frac"] = m["parallel.wait_s_max"] / pass_s
        m["parallel.imbalance"] = summary["mean_step_imbalance"]
        m["parallel.msgs_per_step"] = (
            (after.messages_sent - before.messages_sent) / STEPS
        )
        m["parallel.bytes_per_step"] = (
            (after.bytes_sent - before.bytes_sent) / STEPS
        )

        with tr.span("parallel.run_fixed"):
            m["parallel.run_fixed_s"] = statistics.median(
                timed(self._run, state, 1)[1] for _ in range(5)
            )

        # serial solver, same problem, a fifth of the steps
        serial = self._serial(state)
        n = STEPS // 5
        self._serial_state(serial, state, 2)  # warm-up
        with tr.span("pass.serial"):
            _, serial_s = timed(self._serial_state, serial, state, n - 1)
        m["parallel.efficiency"] = (
            serial_s / n * STEPS / (RANKS * ctx.solve_s)
        )

        with tr.span("parallel.pool_spawn"):
            scratch, m["parallel.pool_spawn_s"] = timed(ProcWorld, RANKS)
        with scratch:
            host.bind_pool(scratch)
            with tr.span("parallel.measure_transport"):
                meas = measure_transport(scratch)
        m["parallel.alpha_s"] = meas["alpha"]
        m["parallel.beta_gbps"] = meas["beta"] / 1e9

        m.update(kernels.host_references(tr))
        m.update(kernels.matvec_metrics(serial.K, tr, m))
        return m
