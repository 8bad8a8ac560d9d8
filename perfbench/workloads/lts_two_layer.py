"""lts_two_layer: clustered local time stepping on a soft basin over a
stiff layer (131,072 elements; 7/8 of them may step 8x coarser than
the global dt, theoretical speedup 4.11x)."""

from __future__ import annotations

import numpy as np

from perfbench.harness import Check, rel_l2, timed

SHAPE = (512, 256)
STEPS = 864           # divisible by the coarsest rate (8)
PREFIX = 256          # steps of the LTS-vs-global-dt check
STIFF_FROM = 0.875    # the stiff layer fills z above this fraction
LTS_TOL = 0.08        # clustered vs global-dt state, relative L2
N_SAMPLES = 64        # nodes of the final state kept as the reference


class Wavelet:
    """Point Ricker wavelet, dt^2-prescaled per the march convention,
    wide enough that the coarsest cluster resolves it."""

    def __init__(self, nnode: int, node: int, dt: float, amplitude: float):
        self.buf = np.zeros(nnode)
        self.node, self.dt, self.amp = node, dt, amplitude
        self.t0 = 0.3 * STEPS * dt
        self.sig = 0.08 * STEPS * dt

    def __call__(self, k: int):
        a = (k * self.dt - self.t0) / self.sig
        w = (1.0 - 2.0 * a * a) * np.exp(-a * a)
        if abs(w) < 1e-12:
            return None
        self.buf[self.node] = self.amp * self.dt * self.dt * w
        return self.buf


class LtsTwoLayer:
    name = "lts_two_layer"

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        nx, nz = SHAPE
        return {
            # a source somewhere in the soft layer
            "src": (int(rng.integers(nx // 4, 3 * nx // 4)),
                    int(rng.integers(nz // 8, nz // 2))),
            "amplitude": float(rng.uniform(0.5, 2.0)),
            "sample": np.sort(rng.choice(
                (nx + 1) * (nz + 1), N_SAMPLES, replace=False
            )),
        }

    def setup(self, inputs: dict) -> dict:
        from repro.solver import RegularGridScalarWave

        solver = RegularGridScalarWave(SHAPE, 1.0, rho=1.0)
        z = solver.elem_centers()[:, 1]
        v = np.where(z > STIFF_FROM * SHAPE[1], 8.0, 1.0)
        mu = v * v   # rho = 1
        dt = solver.stable_dt(mu, safety=0.5)
        plan = solver.lts_plan(mu)
        forcing = Wavelet(solver.nnode, solver.node_index(inputs["src"]),
                          dt, inputs["amplitude"])
        return {"solver": solver, "mu": mu, "dt": dt, "plan": plan,
                "forcing": forcing, **inputs}

    def teardown(self, state: dict) -> None:
        state.clear()

    def _march(self, state: dict, nsteps: int, lts: bool) -> np.ndarray:
        return state["solver"].march(
            state["mu"], state["forcing"], nsteps, state["dt"],
            store=False, lts=lts,
        )

    def run_pass(self, state: dict) -> dict:
        return {"final": self._march(state, STEPS, True)}

    def reference_view(self, state: dict, out: dict) -> dict:
        final = out["final"]
        return {"samples": final[:, state["sample"]],
                "norm": np.array([np.linalg.norm(final[1])])}

    def work(self, state: dict, out: dict) -> float:
        # global-dt equivalent: what the plain loop would have advanced
        return float(state["solver"].nelem * STEPS)

    def checks(self, state: dict, out: dict) -> list:
        err = rel_l2(self._march(state, PREFIX, True)[1],
                     self._march(state, PREFIX, False)[1])
        final = out["final"]
        return [
            Check(f"first {PREFIX} steps within {LTS_TOL:.0%} of global dt",
                  err <= LTS_TOL, f"rel L2 {err:.3e}"),
            Check("plan is clustered", not state["plan"].trivial,
                  f"clusters {state['plan'].histogram()}"),
            Check("final state finite and non-zero",
                  bool(np.all(np.isfinite(final)) and np.abs(final).max() > 0)),
        ]

    def layers(self, state: dict, ctx) -> dict:
        with ctx.tracer.span("pass.global_dt"):
            ref, global_s = timed(self._march, state, STEPS, False)
        speedup = global_s / ctx.solve_s
        theoretical = float(state["plan"].theoretical_speedup())
        return {
            "solver.lts_speedup": speedup,
            "solver.lts_theoretical": theoretical,
            "solver.lts_efficiency": speedup / theoretical,
            "solver.lts_rel_err": rel_l2(ctx.out["final"][1], ref[1]),
        }
