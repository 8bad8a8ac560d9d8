"""Clustered local time stepping, end to end.

The guarantees under test (see :mod:`repro.solver.lts` and DESIGN.md):

* planning — power-of-two rate binning, the 2-to-1 neighbor invariant
  after smoothing, hanging-node constraint closures clamped to one
  rate, and the every-node-owned-once level partition;
* ``lts=off`` (and a trivial plan) is **bitwise identical** to the
  global-dt loops on every solver;
* the clustered schedule agrees with the global-dt reference within
  leapfrog accuracy on two-layer soft-over-stiff problems, serial
  scalar, serial elastic, and distributed — and is second order in
  ``dt`` with the coarsest cluster's own dispersion constant;
* the one clustered loop runs every level on its layout (one
  subdomain per cluster, each applying its own operator to its local
  rows) for both physics, serial and on both ranks, and is **bitwise**
  the global-state loops it replaced, which survive here as oracles;
  the layout invariants hold on random materials; the steady-state
  loop allocates nothing node-sized; its counters are per march; the
  NaN sentinel (scalar, elastic and distributed) looks at the first
  sync boundary after its cadence came due;
* checkpoints are written only at sync boundaries and resume
  bit-identically, serial and distributed; a distributed resume from
  a checkpoint that is not on a sync boundary is rejected;
* both transports produce the same bits under LTS, ranks exchange
  interface sums only at the interface rate, and a rank killed in the
  middle of a coarse step recovers bit-identically from the last
  collective sync checkpoint.
"""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.backend import spmv_acc
from repro.fem.assembly import ElasticOperator
from repro.materials import HomogeneousMaterial, LayeredMaterial
from repro.mesh import extract_mesh, uniform_hex_mesh
from repro.octree import balance_octree, build_adaptive_octree
from repro.parallel import DistributedWaveSolver, ProcWorld, SimWorld
from repro.parallel import dist_solver
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    NumericalHealthError,
    RetryPolicy,
)
from repro.io.seismogram import ReceiverArray
from repro.solver import (
    ElasticWaveSolver,
    RegularGridScalarWave,
    bin_rates,
    build_lts_plan,
    constraint_groups,
    smooth_rates,
)
from repro.solver.checkpoint import CheckpointManager
from repro.solver.lts import node_rates
from repro.solver.frame import MarchFrame
from repro.solver.wave_solver import (
    drain,
    forcing,
    march_clustered,
    restrict,
    update_flops_per_node,
)

#: soft basin (layer 0) over stiff bedrock below z = 875 m; the 8x
#: wave-speed ratio pins the global dt 8x below what the basin needs
LAYERED = LayeredMaterial(
    [875.0], vs=[200.0, 1600.0], vp=[400.0, 3200.0], rho=[2000.0, 2000.0]
)


class RickerForce:
    """Picklable vertical point Ricker wavelet (worker processes
    unpickle it by value; the width is chosen per-problem so even the
    coarsest cluster resolves it)."""

    def __init__(self, node: int, nnode: int, t0: float, sig: float):
        self.node = node
        self.nnode = nnode
        self.t0 = t0
        self.sig = sig

    def __call__(self, t, out=None):
        b = np.zeros((self.nnode, 3)) if out is None else out
        b.fill(0.0)
        a = (t - self.t0) / self.sig
        b[self.node, 2] = 1e9 * (1.0 - 2.0 * a * a) * np.exp(-a * a)
        return b


# ------------------------------------------------------------- planning


def test_bin_rates_power_of_two():
    rates = bin_rates([1.0, 1.9, 2.0, 4.0, 100.0], max_rate=8)
    assert rates.tolist() == [1, 1, 2, 4, 8]
    # relative to the minimum: a common safety factor cancels
    assert np.array_equal(
        rates, bin_rates([0.5, 0.95, 1.0, 2.0, 50.0], max_rate=8)
    )


def test_bin_rates_validates_inputs():
    with pytest.raises(ValueError, match="power of two"):
        bin_rates([1.0, 2.0], max_rate=3)
    with pytest.raises(ValueError, match="empty"):
        bin_rates([])


def test_smooth_rates_two_to_one_invariant():
    # a rough random stable-dt field on a 2D grid: after smoothing no
    # element may run at more than twice the rate of any node it touches
    grid = RegularGridScalarWave((16, 12), 1.0, rho=1.0)
    rng = np.random.default_rng(7)
    elem_dt = np.exp(rng.uniform(0.0, 5.0, grid.nelem))
    rates = smooth_rates(grid.conn, bin_rates(elem_dt), grid.nnode)
    nmin = node_rates(grid.conn, rates, grid.nnode)
    assert np.all(rates <= 2 * nmin[grid.conn].min(axis=1))
    # smoothing only ever lowers rates
    assert np.all(rates <= bin_rates(elem_dt))


def test_constraint_groups_connected_components():
    groups = constraint_groups(
        {5: {1: 0.5, 2: 0.5}, 6: {2: 0.5, 3: 0.5}, 9: {7: 1.0}}
    )
    members = sorted(g.tolist() for g in groups)
    assert members == [[1, 2, 3, 5, 6], [7, 9]]


def test_smooth_rates_clamps_groups_to_common_rate():
    grid = RegularGridScalarWave((8, 8), 1.0, rho=1.0)
    elem_dt = np.ones(grid.nelem)
    elem_dt[: grid.nelem // 2] = 16.0
    group = np.array([0, grid.nnode - 1])  # opposite corners
    rates = smooth_rates(
        grid.conn, bin_rates(elem_dt), grid.nnode, groups=[group]
    )
    nmin = node_rates(grid.conn, rates, grid.nnode, groups=[group])
    assert nmin[group[0]] == nmin[group[1]]


def test_plan_levels_partition_nodes():
    grid = RegularGridScalarWave((16, 8), 1.0, rho=1.0)
    elem_dt = np.where(
        grid.elem_centers()[:, 1] > 6.0, 1.0, 8.0
    )
    plan = build_lts_plan(grid.conn, grid.nnode, dt=0.1, elem_dt=elem_dt)
    assert not plan.trivial
    # levels are coarsest-first and every node is owned exactly once
    lv_rates = [lv.rate for lv in plan.levels]
    assert lv_rates == sorted(lv_rates, reverse=True)
    assert sum(len(lv.own_nodes) for lv in plan.levels) == grid.nnode
    assert sum(plan.histogram().values()) == grid.nelem
    assert plan.theoretical_speedup() > 1.0


def test_trivial_plan_on_uniform_material():
    grid = RegularGridScalarWave((8, 8), 1.0, rho=1.0)
    plan = build_lts_plan(
        grid.conn, grid.nnode, dt=0.1, elem_dt=np.ones(grid.nelem)
    )
    assert plan.trivial
    assert plan.theoretical_speedup() == 1.0


# ------------------------------------------------------- scalar solver


def _scalar_two_layer(shape=(64, 32), nsteps=128):
    solver = RegularGridScalarWave(shape, 1.0, rho=1.0)
    v = np.where(solver.elem_centers()[:, 1] > 0.875 * shape[1], 8.0, 1.0)
    mu = v * v
    dt = solver.stable_dt(mu, safety=0.5)
    src = solver.node_index((shape[0] // 2, shape[1] // 4))
    buf = np.zeros(solver.nnode)

    def forcing(k):
        # wide enough that even the coarsest cluster resolves it
        t = k * dt
        a = (t - 0.45 * nsteps * dt) / (0.18 * nsteps * dt)
        buf[src] = dt * dt * (1.0 - 2.0 * a * a) * np.exp(-a * a)
        return buf

    return solver, mu, dt, forcing


def test_scalar_trivial_plan_bitwise():
    solver, _, dt, forcing = _scalar_two_layer()
    mu = np.full(solver.nelem, 4.0)  # uniform -> trivial plan
    a = solver.march(mu, forcing, 128, dt, store=False)
    b = solver.march(mu, forcing, 128, dt, store=False, lts=True)
    assert np.array_equal(a, b)


def test_scalar_lts_matches_global_within_leapfrog_accuracy():
    solver, mu, dt, forcing = _scalar_two_layer()
    plan = solver.lts_plan(mu)
    assert plan.max_rate == 8  # the 8x speed ratio shows up as clusters
    ref = solver.march(mu, forcing, 128, dt, store=False)
    out = solver.march(mu, forcing, 128, dt, store=False, lts=True)
    ref_n = np.linalg.norm(ref[1])
    assert ref_n > 0
    assert np.linalg.norm(out[1] - ref[1]) / ref_n < 0.1


def test_scalar_lts_checkpoint_resume_bitwise(tmp_path):
    solver, mu, dt, forcing = _scalar_two_layer()
    ref = solver.march(mu, forcing, 128, dt, store=False, lts=True)
    mgr = CheckpointManager(str(tmp_path), interval=48)
    full = solver.march(
        mu, forcing, 128, dt, store=False, lts=True, checkpoint=mgr
    )
    assert np.array_equal(full, ref)
    # snapshots land only on sync boundaries (multiples of max_rate)
    assert mgr.steps()
    assert all((s + 1) % 8 == 0 for s in mgr.steps())
    resumed = solver.march(
        mu, forcing, 128, dt, store=False, lts=True,
        checkpoint=mgr, resume=True,
    )
    assert np.array_equal(resumed, ref)


def test_scalar_lts_rejects_history_and_unsynced_nsteps():
    solver, mu, dt, forcing = _scalar_two_layer()
    with pytest.raises(ValueError, match="store"):
        solver.march(mu, forcing, 128, dt, store=True, lts=True)
    plan = solver.lts_plan(mu)
    with pytest.raises(ValueError, match="multiple of the coarsest"):
        solver.march(
            mu, forcing, plan.max_rate * 3 + 1, dt, store=False, lts=plan
        )


def test_scalar_lts_zero_step_march_returns_the_rest_pair():
    """Every rate divides a 0-step march, so the clustered schedule
    returns the rest pair, as the global one does."""
    solver, mu, dt, forcing = _scalar_two_layer()
    assert not solver.lts_plan(mu).trivial
    rest = solver.march(mu, forcing, 0, dt, store=False)
    pair = solver.march(mu, forcing, 0, dt, store=False, lts=True)
    assert pair.shape == rest.shape == (2, solver.nnode)
    assert np.array_equal(pair, rest)
    assert not pair.any()


def test_scalar_lts_batch_matches_solo():
    solver, mu, dt, forcing = _scalar_two_layer(shape=(32, 16), nsteps=64)
    solo = solver.march(mu, forcing, 64, dt, store=False, lts=True)

    def forcing2(k):
        f = forcing(k)
        return np.stack([f, 0.5 * f], axis=1)

    pair = solver.march(
        mu, forcing2, 64, dt, store=False, lts=True, batch=2
    )
    assert np.array_equal(pair[:, :, 0], solo)


def _scalar_lts_oracle(solver, mu, forcing, nsteps, dt, plan, *,
                      batch=None, alpha=None):
    """The clustered loop as it ran before the level-local layout
    (commit 88a2357), stripped of its checkpoint / fault / health /
    telemetry hooks: global ``x / x_prev / Kx``, every firing applying
    the whole assembled ``K`` to the global state and keeping its own
    rows, the coarse halo overwritten with its interpolated value
    around the apply and restored after, own-sized gathers and scatters
    per firing.  The oracle the level-local march must equal bit for
    bit."""
    shape = (solver.nnode,) if batch is None else (solver.nnode, batch)
    C = solver.damping_diag(mu)
    if alpha is not None:
        C = C + solver.volume_damping_diag(alpha)
    K = solver.bind_K(mu)

    def _diag(v):
        return v if batch is None else v[:, None]

    levels = []
    for lv in plan.levels:
        dtc, own = lv.rate * dt, lv.own_nodes
        levels.append(
            {
                "rate": lv.rate,
                "dtc2": dtc * dtc,
                "rc2": float(lv.rate) ** 2,
                "own": own,
                "interp": lv.interp_nodes,
                "m2": _diag(2.0 * solver.m[own]),
                "inv_ap": _diag(1.0 / (solver.m[own] + 0.5 * dtc * C[own])),
                "a_minus": _diag(solver.m[own] - 0.5 * dtc * C[own]),
            }
        )
    x_prev, x, Kx = np.zeros(shape), np.zeros(shape), np.empty(shape)
    for j in range(0, nsteps, plan.min_rate):
        f = forcing(j)
        for lev in levels:
            rate = lev["rate"]
            if j % rate:
                continue
            interp = lev["interp"]
            if len(interp):
                sv, iv = x[interp], x_prev[interp]
                if j % (2 * rate):  # theta = 1/2
                    np.add(iv, sv, out=iv)
                    np.multiply(iv, 0.5, out=iv)
                x[interp] = iv
            solver.apply_K_bound(K, x, Kx)
            if len(interp):
                x[interp] = sv
            own = lev["own"]
            xo, xpo, ko = x[own], x_prev[own], Kx[own]
            np.multiply(ko, lev["dtc2"], out=ko)
            fo = lev["m2"] * xo
            np.subtract(fo, ko, out=ko)
            np.multiply(lev["a_minus"], xpo, out=fo)
            np.subtract(ko, fo, out=ko)
            if f is not None:
                fo = f[own]
                np.multiply(fo, lev["rc2"], out=fo)
                np.add(ko, fo, out=ko)
            np.multiply(ko, lev["inv_ap"], out=ko)
            x_prev[own] = xo
            x[own] = ko
    return np.stack([x_prev, x])


def _random_clustered(seed, d):
    """Small grid with a random piecewise-constant wave speed: blocks
    of 2^d..3^d elements drawn from an 8x speed range, so three or four
    rate clusters with ragged, multiply-connected interfaces."""
    rng = np.random.default_rng(seed)
    shape = tuple(
        int(n) for n in rng.integers(*((8, 17) if d == 2 else (4, 7)), d)
    )
    solver = RegularGridScalarWave(shape, 1.0, rho=1.0)
    block = int(rng.integers(2, 4))
    nblk = [-(-n // block) for n in shape]
    v_blk = 2.0 ** rng.integers(0, 4, nblk)
    cells = (solver.elem_centers() // block).astype(int)
    v = v_blk[tuple(cells.T)]
    mu = v * v
    dt = solver.stable_dt(mu, safety=0.5)
    nsteps = 16
    srcs = rng.choice(solver.nnode, 3, replace=False)
    amp = rng.uniform(0.5, 2.0, 3)
    buf = np.zeros(solver.nnode)

    def forcing(k):
        if k % 5 == 4:  # quiet steps take the f-is-None branch
            return None
        buf[srcs] = dt * dt * amp * np.sin(0.7 * k + amp)
        return buf

    alpha = rng.uniform(0.0, 0.3, solver.nelem)
    return solver, mu, dt, nsteps, forcing, alpha


@settings(deadline=None, max_examples=20)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from([2, 3]),
    st.booleans(),
    st.booleans(),
)
def test_scalar_lts_level_local_equals_global_state_oracle(
    seed, d, batched, damped
):
    solver, mu, dt, nsteps, forcing, alpha = _random_clustered(seed, d)
    plan = solver.lts_plan(mu, max_rate=8)
    if plan.trivial:
        return
    alpha = alpha if damped else None
    batch = None
    if batched:
        batch, solo = 2, forcing

        def forcing(k):
            f = solo(k)
            return None if f is None else np.stack([f, -0.5 * f], axis=1)

    # layout invariants
    layouts = plan.local_layouts()
    owned = np.concatenate([lv.own_nodes for lv in plan.levels])
    assert np.array_equal(np.sort(owned), np.arange(solver.nnode))
    for lv, lay in zip(plan.levels, layouts):
        n_local = len(lay.local_nodes)
        assert np.array_equal(lay.local_nodes[: lay.n_own], lv.own_nodes)
        assert np.array_equal(
            np.sort(lay.local_nodes), np.unique(solver.conn[lv.elems])
        )
        halo_rate = plan.node_rate[lay.local_nodes[lay.n_own:]]
        assert np.all((halo_rate == 2 * lv.rate) | (2 * halo_rate == lv.rate))
        rows = np.zeros(n_local, dtype=int)
        rows[: lay.n_own] += 1
        for src, rate in ((lay.coarse, 2 * lv.rate), (lay.fine, lv.rate // 2)):
            if src is None:
                continue
            owner = plan.levels[src.level]
            assert owner.rate == rate
            assert np.array_equal(
                owner.own_nodes[src.pos], lay.local_nodes[src.rows]
            )
            rows[src.rows] += 1
        assert np.all(rows == 1)  # every local row has exactly one source

    want = _scalar_lts_oracle(
        solver, mu, forcing, nsteps, dt, plan, batch=batch, alpha=alpha
    )
    for _ in range(2):  # the second march reuses the cached exec state
        got = solver.march(
            mu, forcing, nsteps, dt, store=False, lts=plan,
            batch=batch, alpha=alpha,
        )
        assert np.array_equal(got, want)
    # each level operator is its own rows of K, entries in K's stored
    # order, columns renumbered into the level's local nodes
    K = solver.bind_K(mu)
    indptr, indices = solver._K_pattern
    for lev, lay in zip(solver._lts_exec_cache[4], layouts):
        A = lev["K"].A
        assert A.ncols == len(lay.local_nodes)
        ent = np.concatenate([
            np.arange(indptr[a], indptr[a + 1])
            for a in lay.local_nodes[: lay.n_own]
        ])
        assert np.array_equal(A.data, K[ent])
        assert np.array_equal(lay.local_nodes[A.indices], indices[ent])


def _trace_window(k, nsteps, peak):
    """Trace allocations from the second coarse step to the last: every
    level has fired, the level state is warm, the result not yet
    gathered."""
    if k == 8:
        tracemalloc.start()
    elif k == nsteps - 1:
        peak.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


def test_scalar_lts_steady_state_allocates_nothing_node_sized():
    # both physics drain the one clustered loop: the scalar march, then
    # the elastic run (receivers and all) as the second input
    nsteps, peak = 128, []
    solver, mu, dt, forcing = _scalar_two_layer()

    def probed(k):
        _trace_window(k, nsteps, peak)
        return forcing(k)

    solver.march(mu, forcing, 16, dt, store=False, lts=True)  # warm-up
    solver.march(mu, probed, nsteps, dt, store=False, lts=True)
    _, elastic, force, rec = _elastic_layered()

    def eprobed(t, out):
        _trace_window(round(t / elastic.dt), nsteps, peak)
        return force(t, out)

    t_end = (nsteps - 0.5) * elastic.dt
    elastic.run(force, t_end, receivers=rec, lts=8)  # warm-up
    # a ufunc buffers its broadcast (n, 1) mass diagonal in chunks of at
    # most bufsize elements: bounded scratch (64 kB by default), not a
    # node vector, but more than half of one on this 729-node mesh —
    # shrink it so the probe sees the loop's own allocations
    bufsize = np.setbufsize(16)
    try:
        elastic.run(eprobed, t_end, receivers=rec, lts=8)
    finally:
        np.setbufsize(bufsize)
    node_bytes = (8 * solver.nnode, 24 * elastic.nnode)
    for got, nb in zip(peak, node_bytes, strict=True):
        assert got < nb // 2, (
            f"clustered loop allocated {got} B (a node vector is {nb} B)"
        )


def _lts_counters(solver, *args, **kw):
    tr = telemetry.enable()
    try:
        solver.march(*args, store=False, lts=True, **kw)
    finally:
        telemetry.disable()
    agg = {a["name"]: a for a in tr.aggregates()}
    return agg["scalar.march_lts"]["counters"]


def test_scalar_lts_counters_are_per_march(tmp_path):
    solver, mu, dt, forcing = _scalar_two_layer()
    first = _lts_counters(solver, mu, forcing, 128, dt)
    assert {k: v for k, v in first.items() if k.startswith("fired_r")} == {
        "fired_r8": 16, "fired_r4": 32, "fired_r2": 64, "fired_r1": 128,
    }
    # same (plan, mu, dt): the cached exec state must not carry counts
    assert _lts_counters(solver, mu, forcing, 128, dt) == first
    # a resumed march reports only its own firings
    mgr = CheckpointManager(str(tmp_path), interval=48)
    solver.march(mu, forcing, 96, dt, store=False, lts=True, checkpoint=mgr)
    k0 = max(mgr.steps()) + 1
    assert k0 == 96
    tail = _lts_counters(
        solver, mu, forcing, 128, dt, checkpoint=mgr, resume=True
    )
    assert tail["fired_r1"] == 128 - k0 and tail["fired_r8"] == (128 - k0) // 8
    assert tail["flops"] * 128 == first["flops"] * (128 - k0)


@pytest.mark.parametrize("interval, caught_at", [(8, 7), (10, 15), (12, 15)])
def test_scalar_lts_health_cadence_is_the_interval(interval, caught_at):
    # r_max = 8: the sentinel only sees sync boundaries, and must look
    # at the first one after its cadence came due — not every
    # lcm(interval, 8) steps (39 and 23 for intervals 10 and 12)
    solver, mu, dt, forcing = _scalar_two_layer()
    with pytest.raises(NumericalHealthError) as err:
        solver.march(
            mu, forcing, 128, dt, store=False, lts=True,
            faults=FaultPlan.parse("nan:rank=0,step=7"),
            health_interval=interval,
        )
    assert err.value.step == caught_at


def test_elastic_lts_health_cadence_is_the_interval():
    _, solver, force, rec = _elastic_layered()
    # solo and batched: one clustered schedule, one sentinel (the
    # batched loop used to have none and returned normally)
    for march, forces in (
        (solver.run, force), (solver.run_batch, [force, force])
    ):
        with pytest.raises(NumericalHealthError) as err:
            march(
                forces, 63.5 * solver.dt, receivers=rec, lts=True,
                faults=FaultPlan.parse("nan:rank=0,step=7"),
                health_interval=10,
            )
        assert err.value.step == 15


def test_elastic_lts_batch_raises_on_a_nan_forcing_column():
    # the batched clustered march used to return a non-finite record
    _, solver, force, rec = _elastic_layered()

    def nan_force(t, out):
        out.fill(np.nan)
        return out

    with pytest.raises(NumericalHealthError):
        solver.run_batch(
            [force, nan_force], 63.5 * solver.dt, receivers=rec, lts=True
        )


def test_scalar_lts_second_order_in_dt():
    """ROADMAP item 5's question: the clustered scheme's error against
    the global-dt loop is not an interface defect.  Against an over-
    resolved reference both are second order in ``dt``; LTS carries a
    constant ``~ r_max^2`` times larger, which is the soft cluster's
    own leapfrog dispersion at its own (CFL-limited) step ``r_max dt``.
    """
    shape, n0 = (64, 32), 256
    solver = RegularGridScalarWave(shape, 1.0, rho=1.0)
    v = np.where(solver.elem_centers()[:, 1] > 0.875 * shape[1], 8.0, 1.0)
    mu = v * v
    dt0 = solver.stable_dt(mu, safety=0.5)
    t_end = n0 * dt0
    src = solver.node_index((shape[0] // 2, shape[1] // 4))
    r_max = solver.lts_plan(mu, max_rate=8).max_rate
    assert r_max == 8

    def final(refine, lts):
        dt = dt0 / refine
        buf = np.zeros(solver.nnode)

        def forcing(k):  # quiet at t = 0: both loops start alike
            a = (k * dt - 0.3 * t_end) / (0.08 * t_end)
            buf[src] = dt * dt * (1.0 - 2.0 * a * a) * np.exp(-a * a)
            return buf

        return solver.march(
            mu, forcing, n0 * refine, dt, store=False, lts=lts
        )[1]

    ref = final(16, None)

    def err(refine, lts):
        return np.linalg.norm(final(refine, lts) - ref) / np.linalg.norm(ref)

    e_lts = [err(r, r_max) for r in (1, 2, 4)]
    e_glb = [err(r, None) for r in (1, 2, 4)]
    for e in (e_lts, e_glb):
        assert np.log2(e[0] / e[1]) >= 1.8 and np.log2(e[1] / e[2]) >= 1.8
    for a, b in zip(e_lts, e_glb):
        assert r_max**2 / 2 <= a / b <= 2 * r_max**2


# ------------------------------------------------------ elastic solver


def _elastic_layered(n=8, *, damping_ratio=0.0):
    tree = build_adaptive_octree(
        lambda c, s: np.full(len(c), 1.0 / n), max_level=4
    )
    mesh = extract_mesh(tree, L=1000.0)
    solver = ElasticWaveSolver(
        mesh, tree, LAYERED, damping_ratio=damping_ratio
    )
    # shallow source in the soft (coarsest-cluster) basin, receivers
    # right above it: arrivals land well inside the marched window, and
    # the wavelet is wide enough for the rate-8 cluster to resolve
    src = int(
        np.argmin(
            np.linalg.norm(
                mesh.coords - np.array([500.0, 500.0, 125.0]), axis=1
            )
        )
    )
    force = RickerForce(
        src, mesh.nnode, t0=52 * solver.dt, sig=20 * solver.dt
    )
    rec = ReceiverArray(
        mesh, np.array([[500.0, 500.0, 0.0], [375.0, 375.0, 0.0]])
    )
    return mesh, solver, force, rec


def test_elastic_plan_clusters_the_basin():
    _, solver, _, _ = _elastic_layered()
    plan = solver.lts_plan()
    assert plan.max_rate == 8
    hist = plan.histogram()
    # the soft basin (7/8 of the elements) runs at the coarsest rate
    assert hist[8] > sum(n for r, n in hist.items() if r < 8)


def test_elastic_lts_off_bitwise_on_uniform_material():
    n = 4
    tree = build_adaptive_octree(
        lambda c, s: np.full(len(c), 1.0 / n), max_level=4
    )
    mesh = extract_mesh(tree, L=1000.0)
    mat = HomogeneousMaterial(vs=1000.0, vp=1800.0, rho=2000.0)
    solver = ElasticWaveSolver(mesh, tree, mat)
    force = RickerForce(
        mesh.nnode // 2, mesh.nnode, t0=10 * solver.dt, sig=4 * solver.dt
    )
    rec = ReceiverArray(mesh, np.array([[250.0, 250.0, 0.0]]))
    t_end = 23.5 * solver.dt
    ref = solver.run(force, t_end, receivers=rec)
    # uniform material -> trivial plan -> the global loop runs, bit
    # for bit, even with lts requested
    out = solver.run(force, t_end, receivers=rec, lts=True)
    assert np.array_equal(out.data, ref.data)


def test_elastic_lts_matches_global_within_leapfrog_accuracy():
    _, solver, force, rec = _elastic_layered()
    nsteps = 128
    t_end = (nsteps - 0.5) * solver.dt
    # displacement records: velocity would add a central-difference
    # penalty over the coarse cluster step on top of the scheme error
    ref = solver.run(force, t_end, receivers=rec, record="displacement")
    out = solver.run(
        force, t_end, receivers=rec, record="displacement", lts=True
    )
    n = min(ref.data.shape[-1], out.data.shape[-1])
    ref_n = np.linalg.norm(ref.data[..., :n])
    assert ref_n > 0
    err = np.linalg.norm(out.data[..., :n] - ref.data[..., :n]) / ref_n
    assert err < 0.1


def test_elastic_lts_checkpoint_resume_bitwise(tmp_path):
    # Rayleigh damping on: the per-level damping matvec cache rides
    # along in the snapshot and must restore bit-identically
    _, solver, force, rec = _elastic_layered(damping_ratio=0.02)
    nsteps = 128
    t_end = (nsteps - 0.5) * solver.dt
    ref = solver.run(force, t_end, receivers=rec, lts=8)
    mgr = CheckpointManager(str(tmp_path), interval=48)
    full = solver.run(
        force, t_end, receivers=rec, lts=8, checkpoint=mgr
    )
    assert np.array_equal(full.data, ref.data)
    assert all((s + 1) % 8 == 0 for s in mgr.steps())
    resumed = solver.run(
        force, t_end, receivers=rec, lts=8, checkpoint=mgr, resume=True
    )
    assert np.array_equal(resumed.data, ref.data)


def test_elastic_clustered_march_at_k0_1_starts_from_rest():
    # resume={"k0": 1} loads no record: the levels start from rest, not
    # from whatever the unloaded restart pair's memory held — so with a
    # quiet force(0) the march equals the one from k0 = 0
    _, solver, force, _ = _elastic_layered(damping_ratio=0.02)
    levels = solver._lts_exec(solver.lts_plan(max_rate=8))
    nsteps = 64

    def march(k0):
        pair, _ = drain(march_clustered(
            levels,
            forcing(lambda t, out: force(t, out) if t else None,
                    solver.nnode, solver.dt),
            MarchFrame(nsteps), count=lambda kind, n: None,
            resume={"k0": k0},
        ))
        return np.array(pair)

    ref = march(0)
    assert np.any(ref)
    # leave NaN-filled blocks on the heap for np.empty to hand out (the
    # first 2 MB block is mapped; freeing it raises malloc's mapping
    # threshold, so the next ones come from the heap)
    for _ in range(3):
        np.full(1 << 18, np.nan)
    assert np.array_equal(march(1), ref)


def test_elastic_lts_batch_matches_solo():
    mesh, solver, force, rec = _elastic_layered()
    force2 = RickerForce(
        mesh.nnode // 3, mesh.nnode, t0=52 * solver.dt, sig=20 * solver.dt
    )
    t_end = 63.5 * solver.dt
    solo = [
        solver.run(f, t_end, receivers=rec, lts=True)
        for f in (force, force2)
    ]
    batch = solver.run_batch([force, force2], t_end, receivers=rec, lts=True)
    for got, want in zip(batch, solo):
        assert np.array_equal(got.data, want.data)


def test_elastic_lts_files_stiffness_and_update_flops_apart():
    # a firing's K product is "stiffness" and its update is "update",
    # as on the every-step schedule — not the sum under "stiffness"
    _, solver, force, _ = _elastic_layered()
    levels = solver._lts_exec(solver.lts_plan(max_rate=8))
    nsteps = 64
    solver.run(force, (nsteps - 0.5) * solver.dt, lts=8)
    fired = [nsteps // lev["rate"] for lev in levels]
    assert solver.flops.counts["stiffness"] == sum(
        n * lev["K"].flops_per_matvec for n, lev in zip(fired, levels)
    )
    assert solver.flops.counts["update"] == sum(
        n * update_flops_per_node(False) * len(lev["own"])
        for n, lev in zip(fired, levels)
    )


def _elastic_lts_oracle(solver, plan, force, nsteps, rec, record):
    """The clustered elastic loop as it ran before the solver had one
    ``_update`` (commit ea6db08's ``_run_lts``), stripped of its
    checkpoint / fault / health / telemetry hooks: global ``u`` /
    ``u_prev`` / ``K u``, per-level operators over the global state
    (built here, not read off the solver), the coarse halo overwritten
    with its interpolated value for the stiffness *and* the ``c1``
    product and restored right after, then the rest of the residual
    and the per-level projection on own-sized gathers.  The oracle the
    clustered schedule must equal bit for bit — in particular a loop
    that restores the halo before its ``c1`` product does not."""
    dt, nnode, mesh = solver.dt, solver.nnode, solver.mesh
    col_rate = plan.node_rate[solver.constraints.independent]
    B_all = solver.constraints.B.tocsr()
    beta, kb = solver.beta, solver.Kb_diag
    levels = []
    for lv in plan.levels:
        e, own, dtc = lv.elems, lv.own_nodes, lv.rate * dt
        # the row set's coefficients, written out here
        hd, m = 0.5 * dtc, solver.m[own][:, None]
        ma, C = solver.alpha * m, solver.C_diag[own]
        c_u, A = 2.0 * m, (m + hd * ma) + hd * C
        if kb is not None:
            c_u, A = c_u + hd * kb[own], A + hd * kb[own]
        co = {
            "c_u": c_u, "c_ku": dtc * dtc + hd * beta, "c_kup": hd * beta,
            "prev_coef": (hd * ma - m) + hd * C, "dtc2": dtc * dtc,
        }
        B = B_all[own][:, np.nonzero(col_rate == lv.rate)[0]].tocsr()
        BT = B.T.tocsr()
        own_dofs = (own[:, None] * 3 + np.arange(3)).ravel()
        kab = (solver.K_AB[own_dofs] * (-(dtc * dtc))).tocsr()
        levels.append({
            **co, "rate": lv.rate, "dtc": dtc, "own": own,
            "interp": lv.interp_nodes,
            "K": ElasticOperator(
                mesh.conn[e], mesh.elem_h[e], solver.lam[e], solver.mu[e],
                nnode,
            ),
            "kab": kab if kab.nnz else None,
            "B": B, "BT": BT, "inv_A_bar": 1.0 / (BT @ A),
        })
    damped = solver.beta > 0
    u_prev, u = np.zeros((nnode, 3)), np.zeros((nnode, 3))
    Ku, fbuf = np.empty((nnode, 3)), np.zeros((nnode, 3))
    ku_prev = [np.zeros((len(lev["own"]), 3)) for lev in levels]
    data = rec.allocate(3, nsteps)
    slots = []
    for lev in levels:
        ridx = np.nonzero(np.isin(rec.nodes, lev["own"]))[0]
        slots.append((ridx, np.searchsorted(lev["own"], rec.nodes[ridx])))
    for j in range(0, nsteps, plan.min_rate):
        b = force(j * dt, fbuf)
        for lev, kup, (ridx, rpos) in zip(levels, ku_prev, slots):
            rate = lev["rate"]
            if j % rate:
                continue
            own, interp = lev["own"], lev["interp"]
            if len(interp):
                sv, iv = u[interp], u_prev[interp]
                if j % (2 * rate):  # theta = 1/2
                    np.add(iv, sv, out=iv)
                    np.multiply(iv, 0.5, out=iv)
                u[interp] = iv
            lev["K"].matvec(u, out=Ku)
            uo, ko = u[own], Ku[own]
            r = lev["c_u"] * uo
            r -= ko * lev["c_ku"]
            if lev["kab"] is not None:
                spmv_acc(lev["kab"], u.reshape(-1), r.reshape(-1))
            if len(interp):
                u[interp] = sv
            if damped:
                r += kup * lev["c_kup"]
                kup[:] = ko
            upo = u_prev[own]
            r += lev["prev_coef"] * upo
            if b is not None:
                r += b[own] * lev["dtc2"]
            unew = lev["B"] @ ((lev["BT"] @ r) * lev["inv_A_bar"])
            if len(ridx) and record == "velocity":
                vel = (unew[rpos] - upo[rpos]) / (2.0 * lev["dtc"])
                data[ridx, :, j] = vel
            elif len(ridx):
                data[ridx, :, j] = uo[rpos]
            u_prev[own] = uo
            u[own] = unew
    solver._lts_fill_receiver_gaps(data, levels, slots, nsteps)
    return data


def _elastic_refined_corner(*, damping_ratio=0.0):
    """Homogeneous box whose refined corner octant hangs on its coarse
    neighbours and runs in its own cluster.  Unlike the flat interfaces
    of :func:`_elastic_layered` — where the ``c1`` entries between a
    cluster and its halo are exactly zero — this interface crosses the
    absorbing faces with nonzero ``c1`` coupling across it."""
    tree = balance_octree(build_adaptive_octree(
        lambda c, s: np.where(np.all(c < 0.5, axis=1), 1.0 / 8, 1.0 / 4),
        max_level=4,
    ))
    mesh = extract_mesh(tree, L=1000.0)
    solver = ElasticWaveSolver(
        mesh, tree, HomogeneousMaterial(vs=1000.0, vp=1800.0, rho=2000.0),
        damping_ratio=damping_ratio,
    )
    fine = solver._lts_exec(solver.lts_plan())[-1]
    halo = fine["coarse"].rows  # local rows of the one-coarser halo
    halo_dofs = slice(3 * halo.start, 3 * halo.stop)
    assert solver.constraints.n_hanging and fine["kab"][:, halo_dofs].nnz
    force = RickerForce(
        int(fine["own"][0]), mesh.nnode, t0=12 * solver.dt, sig=4 * solver.dt
    )
    rec = ReceiverArray(
        mesh, np.array([[0.0, 250.0, 500.0], [750.0, 500.0, 0.0]])
    )
    return mesh, solver, force, rec


@pytest.mark.parametrize("record", ["velocity", "displacement"])
@pytest.mark.parametrize("zeta", [0.0, 0.02])
@pytest.mark.parametrize(
    "problem", [_elastic_layered, _elastic_refined_corner]
)
def test_elastic_lts_equals_global_state_oracle(problem, zeta, record):
    _, solver, force, rec = problem(damping_ratio=zeta)
    plan = solver.lts_plan()
    assert not plan.trivial and solver.K_AB.nnz > 0  # clustered, c1 on
    nsteps = 64
    got = solver.run(
        force, (nsteps - 0.5) * solver.dt, receivers=rec, record=record,
        lts=plan,
    )
    want = _elastic_lts_oracle(solver, plan, force, nsteps, rec, record)
    assert np.all(np.abs(want).max(axis=(1, 2)) > 0)
    assert np.array_equal(got.data, want)


# --------------------------------------------------------- distributed


def _dist_lts_problem():
    """Two ranks split across the soft basin: the cut sits inside the
    coarse region, so ranks exchange only at the interface rate."""
    mesh = uniform_hex_mesh(4, L=1000.0)
    parts = (mesh.elem_centers[:, 2] > 500.0).astype(np.int64)
    src = int(
        np.argmin(
            np.linalg.norm(
                mesh.coords - np.array([500.0, 500.0, 250.0]), axis=1
            )
        )
    )
    return mesh, parts, src


def _dist_force(mesh, src, dt):
    return RickerForce(src, mesh.nnode, t0=20 * dt, sig=8 * dt)


def test_dist_lts_sim_vs_proc_bitwise():
    mesh, parts, src = _dist_lts_problem()
    sim = SimWorld(2)
    solver = DistributedWaveSolver(mesh, LAYERED, parts, sim)
    force = _dist_force(mesh, src, solver.dt)
    t_end = 47.5 * solver.dt
    u_sim = solver.run(force, t_end, lts=8)
    stats_sim = [s.as_tuple() for s in sim.stats]
    with ProcWorld(2) as proc:
        solver = DistributedWaveSolver(mesh, LAYERED, parts, proc)
        u_proc = solver.run(force, t_end, lts=8)
        stats_proc = [s.as_tuple() for s in proc.stats]
    assert np.abs(u_sim).max() > 0
    assert np.array_equal(u_sim, u_proc)
    assert stats_sim == stats_proc


def test_dist_lts_one_rank_equals_serial_bitwise():
    # the clustered rank program drains the serial schedule's one
    # clustered loop on the same level-local state, so with no
    # neighbour to sum with it is the serial clustered march, bit for bit
    tree = build_adaptive_octree(
        lambda c, s: np.full(len(c), 1.0 / 8), max_level=3
    )
    mesh = extract_mesh(tree, L=1000.0)
    serial = ElasticWaveSolver(mesh, tree, LAYERED, stacey_c1=False)
    dist = DistributedWaveSolver(
        mesh, LAYERED, np.zeros(mesh.nelem, dtype=np.int64), SimWorld(1),
        dt=serial.dt,
    )
    force = _dist_force(mesh, mesh.nnode // 2, serial.dt)
    nsteps = 48
    u = dist.run(force, (nsteps - 0.5) * serial.dt, lts=8)
    fired = dist.last_timings[0]["lts_fired"]
    assert fired == {r: nsteps // r for r in (8, 4, 2, 1)}
    # every cluster fires at a sync column and records u^j there
    rec = ReceiverArray(mesh, mesh.coords)
    seis = serial.run(
        force, (nsteps + 8 - 0.5) * serial.dt, receivers=rec,
        record="displacement", lts=8,
    )
    assert np.abs(u).max() > 0
    assert np.array_equal(seis.data[:, :, nsteps], u[rec.nodes])


@pytest.mark.parametrize("problem", ["layered", "refined_corner", "dist"])
def test_every_level_marches_on_its_local_layout(problem, monkeypatch):
    """A level's state is its layout's local rows, serial and on both
    ranks: the operator spans exactly the layout's nodes, the ``c1``
    coupling keeps its own-dof rows in the global stored order with
    local-dof columns, and every ``B`` column's support lies in one
    level (the rank row sets carry neither)."""
    if problem == "dist":
        built = []
        rank_levels = dist_solver.cluster_levels

        def spy(plan, operator, row_set):
            levels = rank_levels(plan, operator, row_set)
            built.append((levels, plan.local_layouts()))
            return levels

        monkeypatch.setattr(dist_solver, "cluster_levels", spy)
        mesh, parts, src = _dist_lts_problem()
        solver = DistributedWaveSolver(mesh, LAYERED, parts, SimWorld(2))
        solver.run(_dist_force(mesh, src, solver.dt), 15.5 * solver.dt, lts=8)
        assert len(built) == 2
        for levels, layouts in built:
            for lev, lay in zip(levels, layouts, strict=True):
                assert lev["K"].nnode == len(lay.local_nodes)
                assert lev["kab"] is None and lev["B"] is None
            assert sum("exchange" in lev for lev in levels) == 1
        return
    problem = {
        "layered": _elastic_layered, "refined_corner": _elastic_refined_corner
    }[problem]
    _, solver, _, _ = problem()
    plan = solver.lts_plan()
    col_rate = plan.node_rate[solver.constraints.independent]
    K_AB = solver.K_AB.tocsr()
    levels = solver._lts_exec(plan)
    for lv, lev, lay in zip(
        plan.levels, levels, plan.local_layouts(), strict=True
    ):
        n_own, n_local = len(lv.own_nodes), len(lay.local_nodes)
        assert lev["K"].nnode == n_local
        own_dofs = (lv.own_nodes[:, None] * 3 + np.arange(3)).ravel()
        local_dofs = (lay.local_nodes[:, None] * 3 + np.arange(3)).ravel()
        want, kab = K_AB[own_dofs], lev["kab"]
        if kab is None:
            assert want.nnz == 0
        else:
            assert kab.shape == (3 * n_own, 3 * n_local)
            assert np.array_equal(kab.indptr, want.indptr)
            assert np.array_equal(local_dofs[kab.indices], want.indices)
            dtc = lv.rate * solver.dt
            assert np.array_equal(kab.data, want.data * -(dtc * dtc))
        cols = np.nonzero(col_rate == lv.rate)[0]
        assert lev["B"].shape == (n_own, len(cols))
        assert lev["B"].nnz == solver.B[:, cols].nnz


def test_restrict_to_rows_is_the_all_rows_set_sliced():
    # a level's row set is the every-row set at its step, sliced: the
    # diagonals to its own rows, the projected inverse to the columns
    # those rows touch, bit for bit — and those columns are the ones
    # the plan's rates select
    _, solver, _, _ = _elastic_refined_corner(damping_ratio=0.02)
    assert solver.beta > 0
    plan = solver.lts_plan()
    col_rate = plan.node_rate[solver.constraints.independent]
    for lv, lev in zip(plan.levels, solver._lts_exec(plan), strict=True):
        own = lv.own_nodes
        whole = solver._restrict(lv.rate * solver.dt)
        for key in ("c_u", "prev_coef"):
            assert lev[key].shape == (len(own), 3)
            assert np.array_equal(lev[key], whole[key][own])
        for key in ("c_ku", "c_kup", "dtc2"):
            assert lev[key] == whole[key]
        cols = np.nonzero(col_rate == lv.rate)[0]
        want = solver.B[own][:, cols].tocsr()
        assert len(cols) and lev["B"].shape == want.shape
        for a in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(lev["B"], a), getattr(want, a))
        assert np.array_equal(lev["inv_A_bar"], whole["inv_A_bar"][cols])


def test_undamped_solver_holds_no_mass_damping():
    # m_alpha = None gives restrict's zero Rayleigh terms: the row set of
    # an explicit all-zero alpha M, key by key, and 8 B per grid point
    # less in the working set
    _, solver, _, _ = _elastic_refined_corner()
    assert solver.m_alpha is None
    want = restrict(
        solver.m, solver.C_diag, solver.dt, m_alpha=np.zeros_like(solver.m),
        K_AB=solver.K_AB, B=solver.B,
    )
    assert want.keys() == solver.row_set.keys()
    for key, a in solver.row_set.items():
        if hasattr(a, "indptr"):
            for f in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(a, f), getattr(want[key], f))
        else:
            assert np.array_equal(a, want[key])
    held = solver.memory_bytes()
    solver.m_alpha = np.zeros_like(solver.m)
    assert solver.memory_bytes() - held == 8 * solver.nnode


def test_restrict_refuses_a_local_set_missing_a_c1_partner():
    _, solver, _, _ = _elastic_refined_corner()
    plan = solver.lts_plan()
    lv, lay = plan.levels[-1], plan.local_layouts()[-1]
    solver._restrict(solver.dt, rows=lv.own_nodes, local=lay.local_nodes)
    # the fine level's c1 block reaches into its halo
    with pytest.raises(ValueError, match="c1 partner"):
        solver._restrict(solver.dt, rows=lv.own_nodes, local=lv.own_nodes)


def test_restrict_refuses_rows_that_split_a_hanging_node_from_its_masters():
    _, solver, _, _ = _elastic_refined_corner()
    every = np.arange(solver.nnode)
    h = int(np.nonzero(solver.constraints.hanging)[0][0])
    # its masters without it, then it without its masters
    with pytest.raises(ValueError, match="hanging node"):
        solver._restrict(solver.dt, rows=np.delete(every, h))
    with pytest.raises(ValueError, match="hanging node"):
        solver._restrict(solver.dt, rows=np.array([h]))


def test_dist_lts_exchanges_only_at_interface_rate():
    mesh, parts, src = _dist_lts_problem()
    sim_g = SimWorld(2)
    solver = DistributedWaveSolver(mesh, LAYERED, parts, sim_g)
    force = _dist_force(mesh, src, solver.dt)
    t_end = 47.5 * solver.dt
    u_global = solver.run(force, t_end)
    msgs_global = sum(s.as_tuple()[0] for s in sim_g.stats)

    sim_l = SimWorld(2)
    solver = DistributedWaveSolver(mesh, LAYERED, parts, sim_l)
    u_lts = solver.run(force, t_end, lts=8)
    msgs_lts = sum(s.as_tuple()[0] for s in sim_l.stats)

    # the cut lies in rate >= 2 territory: at most half the handoffs
    # (plus the fixed setup messages) of the per-step global loop
    assert msgs_lts < msgs_global
    assert msgs_lts <= msgs_global // 2 + 8
    # and the clustered trajectory still tracks the global-dt one
    ref_n = np.linalg.norm(u_global)
    assert ref_n > 0
    assert np.linalg.norm(u_lts - u_global) / ref_n < 0.2


def test_dist_lts_resume_bit_identical(tmp_path):
    mesh, parts, src = _dist_lts_problem()
    solver = DistributedWaveSolver(mesh, LAYERED, parts, SimWorld(2))
    force = _dist_force(mesh, src, solver.dt)
    t_end = 47.5 * solver.dt
    u_ref = solver.run(force, t_end, lts=8)

    d = str(tmp_path)
    solver = DistributedWaveSolver(mesh, LAYERED, parts, SimWorld(2))
    u_full = solver.run(
        force, t_end, lts=8, checkpoint_dir=d, checkpoint_every=20
    )
    assert np.array_equal(u_full, u_ref)
    solver = DistributedWaveSolver(mesh, LAYERED, parts, SimWorld(2))
    u = solver.run(force, t_end, lts=8, checkpoint_dir=d, resume=True)
    assert np.array_equal(u, u_ref)


def test_dist_lts_resume_rejects_misaligned_boundary(tmp_path):
    mesh, parts, src = _dist_lts_problem()
    d = str(tmp_path)
    solver = DistributedWaveSolver(mesh, LAYERED, parts, SimWorld(2))
    force = _dist_force(mesh, src, solver.dt)
    t_end = 12.5 * solver.dt
    # global-dt checkpoints every 5 steps -> latest resume index 10,
    # which is not a multiple of the clustered sync rate (4)
    solver.run(force, t_end, checkpoint_dir=d, checkpoint_every=5)
    solver = DistributedWaveSolver(mesh, LAYERED, parts, SimWorld(2))
    with pytest.raises(ValueError, match="sync boundary"):
        solver.run(force, t_end, lts=8, checkpoint_dir=d, resume=True)


@pytest.mark.parametrize(
    "lts, interval, caught_at",
    [(0, 10, 9), (8, 10, 11), (8, 1, 7), (8, 0, None)],
)
def test_dist_health_cadence_is_the_interval(lts, interval, caught_at):
    # the clustered program only sees sync boundaries (every 4 steps
    # here), and the sentinel must look at the first one after its
    # cadence came due — not every lcm(interval, 4) steps, which would
    # read 19; off by default
    mesh, parts, src = _dist_lts_problem()
    solver = DistributedWaveSolver(mesh, LAYERED, parts, SimWorld(2))
    force = _dist_force(mesh, src, solver.dt)
    kw = dict(
        lts=lts, health_interval=interval,
        faults=FaultPlan.parse("nan:rank=1,step=7"),
    )
    if caught_at is None:
        assert np.isnan(solver.run(force, 23.5 * solver.dt, **kw)).any()
        return
    with pytest.raises(NumericalHealthError) as err:
        solver.run(force, 23.5 * solver.dt, **kw)
    assert err.value.step == caught_at


@pytest.mark.parametrize("march", ["march", "run", "run_batch"])
def test_every_step_health_cadence_is_the_interval(march):
    # the every-step schedules are the stride-1 case of the same rule:
    # a NaN after step 7 is caught at the first check after it, step 9
    # at interval 10 — serial errors name the field and no rank
    plan = FaultPlan.parse("nan:rank=0,step=7")
    if march == "march":
        solver, mu, dt, forcing = _scalar_two_layer()
        args = (mu, forcing, 128, dt)
        kw = dict(store=False)
    else:
        _, solver, force, rec = _elastic_layered()
        args = (force if march == "run" else [force, force], 63.5 * solver.dt)
        kw = dict(receivers=rec)
    with pytest.raises(NumericalHealthError) as err:
        getattr(solver, march)(
            *args, faults=plan, health_interval=10, **kw
        )
    assert err.value.step == 9
    assert err.value.rank is None
    assert err.value.field == ("x" if march == "march" else "u")


#: checkpoint steps each schedule writes at interval 10 (keep them all):
#: every tenth step on the every-step schedules, the first sync
#: boundary after each multiple of 10 on the clustered ones (rate 8
#: serial, 4 distributed)
CHECKPOINT_STEPS = {
    "scalar": [9, 19, 29, 39, 49, 59],
    "scalar_lts": [15, 23, 31, 39, 55, 63],
    "elastic": [9, 19, 29, 39, 49, 59],
    "elastic_lts": [15, 23, 31, 39, 55, 63],
    "dist": [9, 19, 29, 39],
    "dist_lts": [11, 19, 31, 39],
}


@pytest.mark.parametrize("schedule", sorted(CHECKPOINT_STEPS))
def test_checkpoint_steps_of_each_schedule(tmp_path, schedule):
    d = str(tmp_path)
    lts = 8 if schedule.endswith("_lts") else 0
    if schedule.startswith("scalar"):
        solver, mu, dt, forcing = _scalar_two_layer()
        mgr = CheckpointManager(d, interval=10, keep=100)
        solver.march(
            mu, forcing, 64, dt, store=False, lts=lts, checkpoint=mgr
        )
        mgrs = [mgr]
    elif schedule.startswith("elastic"):
        _, solver, force, rec = _elastic_layered()
        mgr = CheckpointManager(d, interval=10, keep=100)
        solver.run(
            force, 63.5 * solver.dt, receivers=rec, lts=lts, checkpoint=mgr
        )
        mgrs = [mgr]
    else:
        mesh, parts, src = _dist_lts_problem()
        solver = DistributedWaveSolver(mesh, LAYERED, parts, SimWorld(2))
        solver.run(
            _dist_force(mesh, src, solver.dt), 47.5 * solver.dt, lts=lts,
            checkpoint_dir=d, checkpoint_every=10, checkpoint_keep=100,
        )
        mgrs = [CheckpointManager(d, prefix=f"rank{r}") for r in range(2)]
    for mgr in mgrs:
        assert mgr.steps() == CHECKPOINT_STEPS[schedule]


def test_proc_lts_kill_mid_coarse_step_recovers_bitwise(tmp_path):
    mesh, parts, src = _dist_lts_problem()
    with ProcWorld(2) as clean:
        solver = DistributedWaveSolver(mesh, LAYERED, parts, clean)
        force = _dist_force(mesh, src, solver.dt)
        t_end = 47.5 * solver.dt
        u_ref = solver.run(force, t_end, lts=8)

    # step 18 is not a sync boundary: the kill lands in the middle of a
    # coarse step, and recovery rewinds to the last sync checkpoint
    plan = FaultPlan([FaultSpec("kill", rank=1, step=18)])
    with ProcWorld(2) as world:
        solver = DistributedWaveSolver(mesh, LAYERED, parts, world)
        u = solver.run(
            force, t_end, lts=8, checkpoint_dir=str(tmp_path),
            checkpoint_every=8, faults=plan, retry=RetryPolicy(backoff=0.0),
        )
        assert world.respawns == 1
        assert np.array_equal(u, u_ref)


# ------------------------------------------ CI fault-injection matrix


def test_env_fault_matrix_lts(tmp_path):
    """The ``lts=on`` cell of the CI fault matrix: ``REPRO_FAULTS``
    picks the fault, ``REPRO_FAULT_TRANSPORT`` the transport.  Defaults
    exercise a mid-coarse-step kill on the process transport."""
    plan = FaultPlan.from_env() or FaultPlan.parse("kill:rank=1,step=18")
    transport = os.environ.get("REPRO_FAULT_TRANSPORT", "proc")
    kinds = {s.kind for s in plan.specs}
    mesh, parts, src = _dist_lts_problem()

    if transport == "sim":
        if kinds - {"nan"}:
            pytest.skip("kill/channel faults need the process transport")
        solver = DistributedWaveSolver(mesh, LAYERED, parts, SimWorld(2))
        force = _dist_force(mesh, src, solver.dt)
        with pytest.raises(NumericalHealthError):
            solver.run(
                force, 47.5 * solver.dt, lts=8, faults=plan,
                health_interval=1,
            )
        return

    with ProcWorld(2) as clean:
        solver = DistributedWaveSolver(mesh, LAYERED, parts, clean)
        force = _dist_force(mesh, src, solver.dt)
        t_end = 47.5 * solver.dt
        u_ref = solver.run(force, t_end, lts=8)
    if "nan" in kinds:
        # mirror NaN faults onto every rank so no peer blocks on a
        # failed one (they only fire at shared sync boundaries)
        plan = FaultPlan(
            [
                FaultSpec("nan", rank=r, step=s.step)
                for s in plan.specs
                for r in range(2)
            ]
        )
    with ProcWorld(2, timeout=5.0) as world:
        solver = DistributedWaveSolver(mesh, LAYERED, parts, world)
        u = solver.run(
            force, t_end, lts=8, checkpoint_dir=str(tmp_path),
            checkpoint_every=8, faults=plan, health_interval=1,
            retry=RetryPolicy(backoff=0.0),
        )
        assert world.respawns >= 1
        assert np.array_equal(u, u_ref)
