"""Extension — 3D elastic inversion preview.

The paper presents 2D antiplane inversions and announces that "results
from 3D inversion will be presented at SC2003".  This benchmark runs
that experiment at laptop scale: invert BOTH Lamé fields of a two-layer
3D elastic model from three-component records (surface plus a sparse
side array) of four buried point forces, with the exact-discrete-adjoint
Gauss-Newton-CG machinery (one forward + one adjoint elastic solve per
CG iteration, as in the 2D case).
"""

import numpy as np

from _common import emit, run_once
from repro.inverse import ElasticInverseProblem, MaterialGrid, gauss_newton_cg
from repro.mesh import uniform_hex_mesh
from repro.octree import build_adaptive_octree
from repro.sources.fault import PointForceSource, SourceCollection

L = 2000.0


def stf(t):
    return (
        np.where(
            (t > 0) & (t < 0.3),
            np.sin(np.pi * np.clip(t, 0, 0.3) / 0.3) ** 2,
            0.0,
        )
        * 1e10
    )


def elastic_3d_inversion():
    n = 8
    tree = build_adaptive_octree(
        lambda c, s: np.full(len(c), 1.0 / n), max_level=4
    )
    mesh = uniform_hex_mesh(n, L=L)
    rho = np.full(mesh.nelem, 2000.0)
    grid = MaterialGrid((4, 4, 2), (L, L, L))

    lam_true = grid.sample(lambda p: 2.0e9 + 1.5e9 * (p[:, 2] > 0.5 * L))
    mu_true = grid.sample(lambda p: 1.0e9 + 0.8e9 * (p[:, 2] > 0.5 * L))
    m_true = np.concatenate([lam_true, mu_true])

    srcs = [
        PointForceSource(
            position=np.array([0.35 * L, 0.4 * L, 0.45 * L]),
            direction=np.array([1.0, 0.3, 0.5]),
            time_function=stf,
        ),
        PointForceSource(
            position=np.array([0.7 * L, 0.65 * L, 0.3 * L]),
            direction=np.array([0.0, 1.0, 0.7]),
            time_function=lambda t: stf(t - 0.1),
        ),
        PointForceSource(
            position=np.array([0.25 * L, 0.75 * L, 0.7 * L]),
            direction=np.array([0.6, -1.0, 0.2]),
            time_function=lambda t: stf(t - 0.2),
        ),
        PointForceSource(
            position=np.array([0.8 * L, 0.2 * L, 0.8 * L]),
            direction=np.array([-0.5, 0.4, 1.0]),
            time_function=lambda t: stf(t - 0.3),
        ),
    ]
    forces = SourceCollection(mesh, tree, srcs)
    fbuf = np.zeros((mesh.nnode, 3))
    force_fn = lambda t: forces.forces_at(t, fbuf)

    dt = 0.4 * (L / n) / 2200.0 / np.sqrt(3)
    nsteps = int(2.4 / dt)
    probe = ElasticInverseProblem(
        mesh, grid, rho, np.arange(0), np.zeros((nsteps + 1, 0, 3)), dt,
        nsteps, force_fn,
    )
    u = probe.march(
        probe.fields(m_true), lambda k: dt**2 * force_fn(k * dt)
    )
    # free-surface receivers plus a sparse borehole-like side array
    # (improves lambda illumination through P conversions)
    rec = np.unique(
        np.concatenate(
            [mesh.surface_nodes(2, 0), mesh.surface_nodes(0, 0)[::2]]
        )
    )
    data = u[:, rec, :]

    prob = ElasticInverseProblem(
        mesh, grid, rho, rec, data, dt, nsteps, force_fn
    )
    m0 = np.concatenate(
        [np.full(grid.n, float(lam_true.mean())),
         np.full(grid.n, float(mu_true.mean()))]
    )
    J0 = prob.objective(m0)[0]
    res = gauss_newton_cg(prob, m0, max_newton=12, cg_maxiter=30)
    lam_hat, mu_hat = prob.split(res.m)
    e_lam = float(np.linalg.norm(lam_hat - lam_true) / np.linalg.norm(lam_true))
    e_mu = float(np.linalg.norm(mu_hat - mu_true) / np.linalg.norm(mu_true))
    e0_lam = float(np.linalg.norm(m0[: grid.n] - lam_true) / np.linalg.norm(lam_true))
    e0_mu = float(np.linalg.norm(m0[grid.n :] - mu_true) / np.linalg.norm(mu_true))

    lines = [
        "3D elastic (lambda, mu) inversion — the paper's announced next step:",
        f"  wave grid {mesh.nelem} hexes / {mesh.nnode} points x 3 components,",
        f"  material grid {grid.shape} x 2 fields = {2 * grid.n} parameters,",
        f"  {len(rec)} 3-component receivers (surface + side array), "
        "4 buried point forces",
        "",
        f"  J: {J0:.3e} -> {res.objective:.3e} "
        f"({res.newton_iterations} Newton / {res.total_cg_iterations} CG "
        f"= {prob.n_wave_solves} elastic wave solves)",
        f"  mu     rel error: {e0_mu:.3f} -> {e_mu:.3f}",
        f"  lambda rel error: {e0_lam:.3f} -> {e_lam:.3f}",
        "  (mu is constrained by S waves everywhere; lambda only where P",
        "   conversions illuminate it — the expected contrast)",
    ]
    return "\n".join(lines), (J0, res.objective, e_mu, e_lam, e0_mu, e0_lam)


def test_3d_elastic_inversion(benchmark):
    text, (J0, J, e_mu, e_lam, e0_mu, e0_lam) = run_once(
        benchmark, elastic_3d_inversion
    )
    emit("elastic_3d_inversion", text)
    assert J < 1e-2 * J0
    assert e_mu < 0.35 * e0_mu
    assert e_lam < 0.6 * e0_lam
