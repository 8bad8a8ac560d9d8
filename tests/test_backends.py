"""Backend layer tests.

Three concerns: (1) the planned gather/GEMM/scatter kernels reproduce
the straightforward bincount assembly to roundoff, (2) backend
selection (env var, ``set_backend``, numba fallback) behaves as
documented, (3) the zero-allocation guarantee the kernels exist to
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

import repro.backend as backend_mod
from repro.backend import (
    HAVE_INPLACE_SPMV,
    ScatterPlan,
    available_backends,
    get_backend,
    set_backend,
    spmv_acc,
    spmv_into,
    use_backend,
)
from repro.backend.blas_threads import (
    THREAD_VARS,
    _bundled_openblas,
    single_thread_blas,
)
from repro.fem.assembly import ElasticOperator, assemble_csr
from repro.materials import HomogeneousMaterial
from repro.mesh import extract_mesh, uniform_hex_mesh
from repro.octree import build_adaptive_octree
from repro.io.seismogram import ReceiverArray
from repro.solver import ElasticWaveSolver, RegularGridScalarWave, TetWaveSolver
from repro.sources import MomentTensorSource, double_couple_moment
from repro.sources.fault import SourceCollection

HAVE_NUMBA = "numba" in available_backends()

L = 1000.0
MAT = HomogeneousMaterial(vs=1000.0, vp=1800.0, rho=2000.0)


def make_uniform(n=4):
    tree = build_adaptive_octree(
        lambda c, s: np.full(len(c), 1.0 / n), max_level=int(np.log2(n)) + 1
    )
    mesh = extract_mesh(tree, L=L)
    return tree, mesh


def center_source():
    M = double_couple_moment(90.0, 90.0, 0.0, 1e12)
    return MomentTensorSource(
        position=np.array([0.5 * L + 1.0, 0.5 * L + 1.0, 0.5 * L + 1.0]),
        moment=M,
        T=0.05,
        t0=0.15,
    )


@pytest.fixture(autouse=True)
def _restore_backend():
    """Every test leaves the process-global backend as it found it."""
    saved = backend_mod._active
    yield
    backend_mod._active = saved


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

    def test_fold_after_drop_raises(self):
        plan = ScatterPlan(np.array([0, 1, 1]), 2)
        plan.drop_order()
        with pytest.raises(ValueError):
            plan.fold(np.ones(3), np.empty(3))

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
        U = u.reshape(-1)[solver._dof]
        Y = np.einsum("eij,ej->ei", solver.Ke, U)
        ref = np.bincount(
            solver._dof_flat, weights=Y.ravel(), minlength=3 * solver.nnode
        ).reshape(solver.nnode, 3)
        np.testing.assert_allclose(
            solver.matvec(u), ref, rtol=1e-12, atol=1e-9
        )


# --------------------------------------------------- backend selection


class TestBackendSelection:
    def test_numpy_always_available(self):
        assert "numpy" in available_backends()
        assert set_backend("numpy").name == "numpy"

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            set_backend("fortran")

    def test_env_var_selects(self):
        code = (
            "from repro.backend import get_backend; "
            "print(get_backend().name)"
        )
        env = dict(os.environ, REPRO_BACKEND="numpy")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH", "")])
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert out.stdout.strip() == "numpy"

    def test_bad_env_var_warns_and_falls_back(self):
        backend_mod._active = None
        os.environ["REPRO_BACKEND"] = "no-such-backend"
        try:
            with pytest.warns(RuntimeWarning, match="not a known backend"):
                assert get_backend().name == "numpy"
        finally:
            del os.environ["REPRO_BACKEND"]
            backend_mod._active = None

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba installed")
    def test_numba_fallback_warns(self):
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert set_backend("numba").name == "numpy"

    def test_use_backend_restores(self):
        before = backend_mod._active
        with use_backend("numpy") as b:
            assert b.name == "numpy"
            assert get_backend() is b
        assert backend_mod._active is before


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


# ---------------------------------------------- cross-backend equivalence


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
class TestNumbaEquivalence:
    def _forward(self):
        tree, mesh = make_uniform(4)
        solver = ElasticWaveSolver(mesh, tree, MAT)
        forces = SourceCollection(mesh, tree, [center_source()])
        rec = ReceiverArray(mesh, np.array([[500.0, 500.0, 0.0]]))
        seis = solver.run(forces, 0.3, receivers=rec)
        return seis.data

    def test_elastic_forward_matches(self):
        with use_backend("numpy"):
            ref = self._forward()
        with use_backend("numba"):
            got = self._forward()
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    def test_scalar_gradient_matches(self):
        from repro.inverse import MaterialGrid, ScalarWaveInverseProblem

        def gradient():
            nx, nz = 8, 6
            h = 100.0
            solver = RegularGridScalarWave((nx, nz), h, rho=1000.0)
            grid = MaterialGrid((2, 2), (nx * h, nz * h))
            m_true = grid.sample(lambda p: np.full(len(p), 3.0e9))
            m0 = grid.sample(lambda p: np.full(len(p), 2.5e9))
            dt = solver.stable_dt(np.full(solver.nelem, m_true.max()))
            nsteps = 40
            src_node = int(solver.nnode // 2)
            fbuf = np.zeros(solver.nnode)

            def forcing(k):
                fbuf[src_node] = dt**2 * np.sin(0.3 * k)
                return fbuf

            rec = solver.surface_nodes()[::2]
            mu_true = grid.to_elements(solver) @ m_true
            u = solver.march(mu_true, forcing, nsteps, dt, store=True)
            data = u[:, rec]
            prob = ScalarWaveInverseProblem(
                solver, grid, rec, data, dt, nsteps, extra_forcing=forcing
            )
            g, _, _ = prob.gradient(m0)
            return g

        with use_backend("numpy"):
            g_np = gradient()
        with use_backend("numba"):
            g_nb = gradient()
        np.testing.assert_allclose(g_nb, g_np, rtol=1e-12, atol=1e-20)


# ------------------------------------------------- allocation regression


@pytest.mark.skipif(
    not HAVE_INPLACE_SPMV,
    reason="scipy in-place CSR kernels unavailable: fallback allocates",
)
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
