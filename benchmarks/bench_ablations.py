"""Ablations of the paper's design choices (DESIGN.md).

1. element-based dense matvec vs assembled CSR (the same product, and
   the memory that is the reason the hexahedral code stores no matrix);
2. hex vs tet memory per grid point (~10x in the paper);
3. octree-adaptive vs uniform meshing (the ~2000x grid-point savings
   mechanism, measured at our scale);
4. multiscale continuation vs direct fine-grid inversion (the local
   minima / entrapment remedy of Section 3.1).
"""

import numpy as np

from _common import emit, run_once
from repro.core import AntiplaneSetup, ForwardSimulation, MaterialInversion
from repro.fem import ElasticOperator, assemble_csr
from repro.inverse import MaterialGrid, gauss_newton_cg
from repro.materials import HomogeneousMaterial, SyntheticBasinModel
from repro.mesh import uniform_hex_mesh
from repro.octree import build_adaptive_octree
from repro.solver import TetWaveSolver, ElasticWaveSolver


def matvec_ablation():
    mesh = uniform_hex_mesh(16, L=1000.0)
    rng = np.random.default_rng(0)
    lam = np.full(mesh.nelem, 2e9)
    mu = np.full(mesh.nelem, 1e9)
    op = ElasticOperator(mesh.conn, mesh.elem_h, lam, mu, mesh.nnode)
    A = assemble_csr(mesh.conn, mesh.elem_h, lam, mu, mesh.nnode)
    u = rng.standard_normal((mesh.nnode, 3))
    # correctness (relative: the entries are modulus-scaled, ~1e9)
    y = op.matvec(u)
    err = np.abs(y - (A @ u.ravel()).reshape(-1, 3)).max() / np.abs(y).max()
    mem_elem = mesh.conn.nbytes + 2 * 8 * mesh.nelem + 2 * 24 * 24 * 8
    mem_csr = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    return {
        "nelem": mesh.nelem,
        "err": float(err),
        "mem_ratio": mem_csr / mem_elem,
    }


def memory_ablation():
    mat = HomogeneousMaterial(vs=1000.0, vp=1800.0, rho=2000.0)
    mesh = uniform_hex_mesh(8, L=1000.0)
    tree = build_adaptive_octree(lambda c, s: np.full(len(c), 1 / 8), max_level=4)
    hexs = ElasticWaveSolver(mesh, tree, mat)
    tets = TetWaveSolver(mesh, mat)
    return {
        "hex_bytes_per_point": hexs.memory_bytes() / mesh.nnode,
        "tet_bytes_per_point": tets.memory_bytes() / mesh.nnode,
        "ratio": tets.memory_bytes() / hexs.memory_bytes(),
    }


def adaptivity_ablation():
    L = 80_000.0
    mat = SyntheticBasinModel(L=L, depth=40_000.0, vs_min=250.0)
    sim = ForwardSimulation(
        mat, L=L, fmax=0.1, box_frac=(1, 1, 0.5), max_level=7, h_min=L / 2**7
    )
    uniform = sim.uniform_equivalent_grid_points()
    return {
        "adaptive_points": sim.mesh.nnode,
        "uniform_points": uniform,
        "savings": uniform / sim.mesh.nnode,
        "levels": len(np.unique(sim.mesh.elem_level)),
    }


def continuation_ablation():
    """Local minima and the grid-continuation remedy (Section 3.1).

    Two measurements: (i) nonconvexity — starting the fine-grid
    inversion from a modulus 1.8x too stiff strands it at a much higher
    misfit than starting near the prior mean (the Newton convergence
    ball is wavelength-sized); (ii) continuation economics — seeding the
    fine grid from the prolonged coarse solution reaches the same
    misfit in fewer (expensive) fine-grid iterations than starting the
    fine grid from scratch.
    """

    def vs(pts):
        v = 1.2 + 0.8 * (pts[:, 1] > 2.5)
        lens = ((pts[:, 0] - 4.0) / 2.2) ** 2 + (pts[:, 1] / 1.8) ** 2 < 1.0
        return np.where(lens, 0.9, v)

    setup = AntiplaneSetup(
        vs,
        lengths=(12.0, 6.0),
        wave_shape=(36, 18),
        n_receivers=24,
        t_end=10.0,
        rupture_velocity=2.0,
        t0=0.6,
    )
    inv = MaterialInversion(setup, beta_tv=1e-6)
    good = float(np.mean(setup.mu_true_e))
    grid = setup.material_grids(4)[-1]
    prob_near = inv.make_problem(grid)
    near = gauss_newton_cg(
        prob_near, np.full(grid.n, good), max_newton=15, cg_maxiter=25
    )
    prob_far = inv.make_problem(grid)
    far = gauss_newton_cg(
        prob_far, np.full(grid.n, 1.8 * good), max_newton=15, cg_maxiter=25
    )

    ms = inv.run(n_levels=4, newton_per_level=6, cg_maxiter=25, m_init=good)
    J_target = ms.multiscale.levels[-1][1].objective
    fine_iters_ms = ms.multiscale.levels[-1][1].newton_iterations
    hit = {"n": None}

    def cb(it, m, J):
        if J <= J_target and hit["n"] is None:
            hit["n"] = it + 1

    prob_scratch = inv.make_problem(grid)
    gauss_newton_cg(
        prob_scratch,
        np.full(grid.n, good),
        max_newton=30,
        cg_maxiter=25,
        callback=cb,
    )
    return {
        "J_near_guess": float(near.objective),
        "J_far_guess": float(far.objective),
        "J_target": float(J_target),
        "fine_iters_multiscale": int(fine_iters_ms),
        "fine_iters_direct": hit["n"] if hit["n"] is not None else 31,
    }


def ablations():
    lines = ["Design-choice ablations:", ""]
    m = matvec_ablation()
    lines.append(
        f"1. element-based matvec vs CSR ({m['nelem']:,} elements): "
        f"identical to {m['err']:.1e}; CSR stores "
        f"{m['mem_ratio']:.0f}x more bytes — the matrix-free design removes "
        "that storage entirely"
    )
    mm = memory_ablation()
    lines.append(
        f"2. solver memory per grid point: hex {mm['hex_bytes_per_point']:.0f} B "
        f"vs tet {mm['tet_bytes_per_point']:.0f} B -> {mm['ratio']:.1f}x "
        "(paper: ~10x less memory than the tetrahedral code)"
    )
    a = adaptivity_ablation()
    lines.append(
        f"3. wavelength-adaptive octree: {a['adaptive_points']:,} points vs "
        f"{a['uniform_points']:,} uniform at the finest h -> "
        f"{a['savings']:.0f}x savings across {a['levels']} levels "
        "(grows with vs contrast: paper reports ~2000x at 1 Hz / 100 m/s)"
    )
    c = continuation_ablation()
    lines.append(
        f"4a. local minima: fine-grid GN from a near initial guess "
        f"reaches J = {c['J_near_guess']:.2e}; from a 1.8x-too-stiff "
        f"guess it strands at J = {c['J_far_guess']:.2e} "
        "(wavelength-sized Newton convergence ball, Section 3.1)"
    )
    lines.append(
        f"4b. continuation economics: the multiscale solve reaches "
        f"J = {c['J_target']:.2e} with {c['fine_iters_multiscale']} "
        f"fine-grid Newton iterations (coarse levels are cheap); the "
        f"direct fine-grid solve needs {c['fine_iters_direct']} to get "
        "there"
    )
    return "\n".join(lines), (m, mm, a, c)


def test_ablations(benchmark):
    text, (m, mm, a, c) = run_once(benchmark, ablations)
    emit("ablations", text)
    assert m["err"] < 1e-6
    assert m["mem_ratio"] > 5
    assert mm["ratio"] > 4
    assert a["savings"] > 2
    assert c["J_far_guess"] > 1.5 * c["J_near_guess"]  # entrapment
    assert c["fine_iters_multiscale"] < c["fine_iters_direct"]
