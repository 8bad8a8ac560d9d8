"""inverse_gn: multiscale Gauss-Newton-CG inversion of a layered basin
section (paper Section 3.2) on a 64 x 32 wave grid, 32 receivers, 5 %
noise; one pass is a whole three-level inversion."""

from __future__ import annotations

import numpy as np

from perfbench.harness import Check, timed

WAVE_SHAPE = (64, 32)
T_END = 12.5
N_RECEIVERS = 32
NOISE = 0.05
LEVELS = 3
NEWTON_PER_LEVEL = 4
CG_MAXITER = 10
M_INIT = 3.0


def vs_target(pts: np.ndarray) -> np.ndarray:
    """Layered section with a slow sedimentary lens and a stiff
    inclusion (km/s); the Figure 3.2 target."""
    x, z = pts[:, 0], pts[:, 1]
    vs = np.full(len(pts), 1.6)
    vs = np.where(z > 4.0, 2.2, vs)
    vs = np.where(z > 9.0, 2.9, vs)
    vs = np.where(z > 14.0, 3.5, vs)
    lens = ((x - 14.0) / 9.0) ** 2 + (z / 3.2) ** 2 < 1.0
    vs = np.where(lens, 1.0, vs)
    inc = ((x - 28.0) / 4.0) ** 2 + ((z - 7.0) / 2.5) ** 2 < 1.0
    return np.where(inc, 3.2, vs)


class InverseGN:
    name = "inverse_gn"
    #: one construction is 15 ms; single ones moved the median of ten
    #: runs by 23 % between two sets, twenty at a time are 0.3 s
    setup_reps = 20

    def inputs(self, seed: int) -> dict:
        # The seed picks the slip amplitude.  Data, misfit and gradient
        # scale with it, so the iterates (and the Newton and CG counts,
        # which are the work) stay put while every number changes.  A
        # seeded noise draw would change the iteration counts instead.
        rng = np.random.default_rng(seed)
        return {"u0": float(rng.uniform(0.8, 1.25))}

    def setup(self, inputs: dict) -> dict:
        from repro.core import AntiplaneSetup, MaterialInversion

        setup = AntiplaneSetup(
            vs_target, wave_shape=WAVE_SHAPE, t_end=T_END,
            n_receivers=N_RECEIVERS, noise=NOISE, u0=inputs["u0"],
        )
        return {"setup": setup, "inversion": MaterialInversion(setup)}

    def teardown(self, state: dict) -> None:
        state.clear()

    def _invert(self, state: dict):
        return state["inversion"].run(
            n_levels=LEVELS, newton_per_level=NEWTON_PER_LEVEL,
            cg_maxiter=CG_MAXITER, m_init=M_INIT,
        )

    def run_pass(self, state: dict) -> dict:
        res = self._invert(state)
        levels = res.multiscale.levels
        return {
            "m_final": res.m_final,
            "objective": np.array([levels[-1][1].objective]),
            "model_errors": np.array(res.model_errors),
            "iterations": np.array([
                sum(r.newton_iterations for _, r in levels),
                res.multiscale.total_cg_iterations,
            ]),
        }

    def work(self, state: dict, out: dict) -> float:
        # wave-grid elements x time steps x linearised solves (Newton +
        # CG iterations, counted by the solver itself)
        s = state["setup"]
        return float(s.solver.nelem * s.nsteps * out["iterations"].sum())

    def checks(self, state: dict, out: dict) -> list:
        errs = out["model_errors"]
        return [
            Check("model error falls at every level",
                  bool(np.all(np.diff(errs) < 0)), f"{np.round(errs, 4)}"),
            Check("objective finite", bool(np.isfinite(out["objective"][0]))),
            Check("every Newton iteration allowed was taken",
                  int(out["iterations"][0]) == LEVELS * NEWTON_PER_LEVEL,
                  f"newton/cg {out['iterations'].tolist()}"),
        ]

    def layers(self, state: dict, ctx) -> dict:
        tr = ctx.tracer
        s = state["setup"]
        grid = s.material_grids(LEVELS)[-1]
        prob = state["inversion"].make_problem(grid, LEVELS - 1)
        m = np.full(prob.n, M_INIT)
        with tr.span("inverse.forward"):
            fwd, forward_s = timed(prob.forward, m)
        with tr.span("inverse.gradient"):
            (g, _, fwd), gradient_s = timed(prob.gradient, m)
        with tr.span("inverse.hessvec"):
            _, hessvec_s = timed(prob.gn_hessvec, g, fwd)
        return {
            "inverse.forward_s": forward_s,
            "inverse.gradient_s": gradient_s,
            "inverse.hessvec_s": hessvec_s,
            "inverse.newton_iters": int(ctx.out["iterations"][0]),
            "inverse.cg_iters": int(ctx.out["iterations"][1]),
            "inverse.model_err": float(ctx.out["model_errors"][-1]),
            # the stored forward history, from its array sizes
            "inverse.state_mb": (s.nsteps + 1) * s.solver.nnode * 8 / 1e6,
        }
