"""Backend layer tests.

Three concerns: (1) the planned gather/GEMM/scatter kernels reproduce
the straightforward bincount assembly to roundoff, (2) ``get_backend``
is the one lazily built numpy backend and its construction owns the
BLAS threading, (3) the zero-allocation guarantee the kernels exist to
provide actually holds — verified with tracemalloc, so an accidental
reintroduction of a per-step temporary fails the suite.
"""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from repro.backend import ScatterPlan, get_backend, spmv_acc, spmv_into
from repro.backend.blas_threads import (
    THREAD_VARS,
    _bundled_openblas,
    single_thread_blas,
)
from repro.fem.assembly import ElasticOperator, assemble_csr
from repro.materials import HomogeneousMaterial
from repro.mesh import extract_mesh
from repro.octree import build_adaptive_octree
from repro.solver import RegularGridScalarWave, TetWaveSolver

L = 1000.0
MAT = HomogeneousMaterial(vs=1000.0, vp=1800.0, rho=2000.0)


def make_uniform(n=4):
    tree = build_adaptive_octree(
        lambda c, s: np.full(len(c), 1.0 / n), max_level=int(np.log2(n)) + 1
    )
    mesh = extract_mesh(tree, L=L)
    return tree, mesh


# ------------------------------------------------------------- ScatterPlan


class TestScatterPlan:
    def test_matches_bincount(self):
        rng = np.random.default_rng(0)
        n, nnz = 50, 400
        idx = rng.integers(0, n, size=nnz)
        plan = ScatterPlan(idx, n)
        x = rng.standard_normal(nnz)
        y = rng.standard_normal(n)
        expect = y + np.bincount(idx, weights=x, minlength=n)
        got = plan.scatter_acc(np.ones(nnz), x, y.copy())
        np.testing.assert_allclose(got, expect, rtol=1e-13, atol=1e-13)

    def test_folded_coefficients(self):
        rng = np.random.default_rng(1)
        n, nnz = 30, 200
        idx = rng.integers(0, n, size=nnz)
        coef = rng.standard_normal(nnz)
        plan = ScatterPlan(idx, n)
        data = np.empty(nnz)
        plan.fold(coef, data)
        x = rng.standard_normal(nnz)
        expect = np.bincount(idx, weights=coef * x, minlength=n)
        got = plan.scatter_acc(data, x, np.zeros(n))
        np.testing.assert_allclose(got, expect, rtol=1e-13, atol=1e-13)

    def test_cut_plan_sums_like_one_block(self):
        """Cutting the slots into blocks moves no bit: every row adds
        its terms in slot order either way, and each block touches only
        its window of rows."""
        rng = np.random.default_rng(3)
        n, nnz = 40, 300
        idx = rng.integers(0, n, size=nnz)
        coef, x = rng.standard_normal(nnz), rng.standard_normal((nnz, 3))
        whole = ScatterPlan(idx, n)
        cut = ScatterPlan(idx, n, cuts=[0, 7, 8, 150, 299, nnz])
        assert len(cut.blocks) == 5
        for s0, s1, r0, r1, *_ in cut.blocks:
            assert (r0, r1) == (idx[s0:s1].min(), idx[s0:s1].max() + 1)
        got = [
            p.scatter_acc(p.fold(coef, np.empty(nnz)), x, np.zeros((n, 3)))
            for p in (whole, cut)
        ]
        assert np.array_equal(got[0], got[1])

    def test_empty_plan(self):
        plan = ScatterPlan(np.array([], dtype=np.int64), 4)
        y = np.ones(4)
        assert plan.scatter_acc(np.array([]), np.array([]), y) is y
        np.testing.assert_array_equal(y, 1.0)

    def test_spmv_helpers(self):
        import scipy.sparse as sp

        rng = np.random.default_rng(2)
        A = sp.random(20, 15, density=0.3, random_state=3, format="csr")
        x = rng.standard_normal(15)
        y0 = rng.standard_normal(20)
        got = spmv_acc(A, x, y0.copy())
        np.testing.assert_allclose(got, y0 + A @ x, rtol=1e-13, atol=1e-13)
        out = np.empty(20)
        spmv_into(A, x, out)
        np.testing.assert_allclose(out, A @ x, rtol=1e-13, atol=1e-13)
        # 2D right-hand sides (the B / B^T projection path)
        X = np.ascontiguousarray(rng.standard_normal((15, 3)))
        Y = np.zeros((20, 3))
        spmv_acc(A, X, Y)
        np.testing.assert_allclose(Y, A @ X, rtol=1e-13, atol=1e-13)


# ------------------------------------------- kernels vs naive assembly


class TestKernelsMatchReference:
    def test_elastic_matvec_vs_csr(self):
        _, mesh = make_uniform(4)
        lam = np.full(mesh.nelem, 2.0)
        mu = np.full(mesh.nelem, 1.0)
        op = ElasticOperator(mesh.conn, mesh.elem_h, lam, mu, mesh.nnode)
        A = assemble_csr(mesh.conn, mesh.elem_h, lam, mu, mesh.nnode)
        rng = np.random.default_rng(4)
        u = rng.standard_normal((mesh.nnode, 3))
        ref = (A @ u.ravel()).reshape(mesh.nnode, 3)
        got = op.matvec(u)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)
        # out= path writes the same values into a caller buffer
        out = np.empty((mesh.nnode, 3))
        assert op.matvec(u, out=out) is out
        np.testing.assert_array_equal(out, got)
        np.testing.assert_allclose(
            op.diagonal(),
            A.diagonal().reshape(mesh.nnode, 3),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_matvec_rejects_noncontiguous_out(self):
        _, mesh = make_uniform(2)
        op = ElasticOperator(
            mesh.conn,
            mesh.elem_h,
            np.ones(mesh.nelem),
            np.ones(mesh.nelem),
            mesh.nnode,
        )
        bad = np.empty((mesh.nnode, 6))[:, ::2]
        with pytest.raises(ValueError, match="contiguous"):
            op.matvec(np.zeros((mesh.nnode, 3)), out=bad)

    def test_scalar_apply_K_vs_bincount(self):
        solver = RegularGridScalarWave((8, 6), 50.0, rho=1000.0)
        rng = np.random.default_rng(5)
        mu = rng.uniform(1e9, 3e9, solver.nelem)
        u = rng.standard_normal(solver.nnode)
        coef = mu * solver.h ** (solver.d - 2)
        Y = (u[solver.conn] @ solver.K_ref.T) * coef[:, None]
        ref = np.bincount(
            solver.conn.ravel(), weights=Y.ravel(), minlength=solver.nnode
        )
        np.testing.assert_allclose(
            solver.apply_K(mu, u), ref, rtol=1e-12, atol=1e-6
        )

    def test_tet_matvec_vs_bincount(self):
        _, mesh = make_uniform(2)
        solver = TetWaveSolver(mesh, MAT)
        rng = np.random.default_rng(6)
        u = rng.standard_normal((solver.nnode, 3))
        dof = solver._kernel.dof
        Y = np.einsum("eij,ej->ei", solver.Ke, u.reshape(-1)[dof])
        ref = np.bincount(
            dof.ravel(), weights=Y.ravel(), minlength=3 * solver.nnode
        ).reshape(solver.nnode, 3)
        np.testing.assert_allclose(
            solver.matvec(u), ref, rtol=1e-12, atol=1e-9
        )


# ---------------------------------------------------- backend accessor


class TestBackendSelection:
    """There is nothing to select: ``get_backend`` builds the numpy
    backend on first call and hands out that object ever after."""

    def test_numpy_always_available(self):
        # perfbench fingerprints every run with get_backend().name
        assert get_backend().name == "numpy"
        assert get_backend() is get_backend()


# ------------------------------------------------------ BLAS threading

_BLAS_PROBE = """
import json, statistics, time
import numpy as np
from repro.backend.blas_threads import _bundled_openblas
from repro.fem.assembly import ElasticOperator
from repro.mesh import uniform_hex_mesh

lib = _bundled_openblas()
before = lib.scipy_openblas_get_num_threads64_()
mesh = uniform_hex_mesh(16)
n = 2048
op = ElasticOperator(
    mesh.conn[:n], mesh.elem_h[:n], np.ones(n), np.ones(n), mesh.nnode
)
after = lib.scipy_openblas_get_num_threads64_()
u = np.random.default_rng(0).standard_normal((mesh.nnode, 3))
out = np.empty_like(u)
op.matvec(u, out=out)
times = []
for _ in range(30):
    t0 = time.perf_counter()
    op.matvec(u, out=out)
    times.append(time.perf_counter() - t0)
print(json.dumps({"before": before, "after": after,
                  "matvec_s": statistics.median(times)}))
"""


def _blas_probe(**thread_env):
    """Build a 2,048-element operator in a subprocess whose environment
    has no BLAS thread variable but ``thread_env``."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(thread_env)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH", "")])
    )
    out = subprocess.run(
        [sys.executable, "-c", _BLAS_PROBE],
        capture_output=True, text=True, env=env, check=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    return json.loads(out.stdout)


@pytest.mark.skipif(
    os.cpu_count() == 1 or _bundled_openblas() is None,
    reason="needs >= 2 cores and numpy's bundled OpenBLAS",
)
class TestBlasThreads:
    def test_clean_environment_runs_single_threaded(self):
        clean = _blas_probe()
        assert clean["before"] >= 2
        assert clean["after"] == 1
        pinned = _blas_probe(OPENBLAS_NUM_THREADS="1")
        assert pinned["before"] == pinned["after"] == 1
        # the unpinned stall is 50x on a 2-vCPU host; 3x is generous
        assert clean["matvec_s"] <= 3 * pinned["matvec_s"]

    def test_an_explicit_setting_wins(self, monkeypatch):
        lib = _bundled_openblas()
        saved = lib.scipy_openblas_get_num_threads64_()
        try:
            lib.scipy_openblas_set_num_threads64_(2)
            monkeypatch.setenv("OMP_NUM_THREADS", "2")
            single_thread_blas()
            assert lib.scipy_openblas_get_num_threads64_() == 2
        finally:
            lib.scipy_openblas_set_num_threads64_(saved)


# ------------------------------------------------- allocation regression


class TestZeroAllocation:
    def test_elastic_matvec_allocates_nothing(self):
        """After warmup, ``matvec(u, out=...)`` must not allocate any
        O(nnode) array — the workspace was all built in ``__init__``."""
        _, mesh = make_uniform(8)
        lam = np.full(mesh.nelem, 2.0)
        mu = np.full(mesh.nelem, 1.0)
        op = ElasticOperator(mesh.conn, mesh.elem_h, lam, mu, mesh.nnode)
        u = np.ones((mesh.nnode, 3))
        out = np.empty((mesh.nnode, 3))
        op.matvec(u, out=out)  # warmup
        node_bytes = 8 * 3 * mesh.nnode
        tracemalloc.start()
        for _ in range(5):
            op.matvec(u, out=out)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < node_bytes // 2, (
            f"matvec allocated {peak} B (node vector is {node_bytes} B)"
        )

    def test_phased_and_bound_applies_allocate_nothing(self):
        """After warmup, the phased pair of a distributed rank's
        operator and a bound-handle ``matvec`` / ``matrows`` allocate
        nothing node-sized: the block views are built once."""
        _, mesh = make_uniform(8)
        rng = np.random.default_rng(0)
        lam, mu = rng.uniform(1, 2, mesh.nelem), rng.uniform(1, 2, mesh.nelem)
        op = ElasticOperator(
            mesh.conn, mesh.elem_h, lam, mu, mesh.nnode,
            split_elems=mesh.nelem // 3,
        )
        kern = get_backend().element_kernel(
            mesh.conn, [np.eye(8)], mesh.nnode
        )
        ha, hb = kern.bind((lam,)), kern.bind((mu,))
        u = rng.standard_normal((mesh.nnode, 3))
        out = np.empty_like(u)
        s, s_out = rng.standard_normal(mesh.nnode), np.empty(mesh.nnode)
        rows = rng.standard_normal((4, mesh.nnode))
        out_rows = np.empty_like(rows)

        def cycle():
            op.matvec_interface(u, out)
            op.matvec_interior_acc(u, out)
            for h in (ha, hb):
                kern.matvec(s, s_out, h)
                kern.matrows(rows, out_rows, h)

        cycle()  # warmup builds the block views
        node_bytes = 8 * mesh.nnode
        tracemalloc.start()
        for _ in range(5):
            cycle()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < node_bytes // 2, (
            f"applies allocated {peak} B (a scalar node vector is "
            f"{node_bytes} B)"
        )

    def test_scalar_march_no_per_step_growth(self):
        """March allocations are setup-only: 25x more steps must not
        raise the allocation peak (no per-step temporaries)."""
        solver = RegularGridScalarWave((16, 8), 100.0, rho=1000.0)
        mu = np.full(solver.nelem, 2.5e9)
        dt = solver.stable_dt(mu)

        def peak_for(nsteps):
            solver.march(mu, lambda k: None, 4, dt, store=False)  # warmup
            tracemalloc.start()
            solver.march(mu, lambda k: None, nsteps, dt, store=False)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        short, long_ = peak_for(8), peak_for(200)
        assert long_ <= short + 8 * solver.nnode, (
            f"march peak grew from {short} B (8 steps) to {long_} B "
            "(200 steps): something allocates per step"
        )
