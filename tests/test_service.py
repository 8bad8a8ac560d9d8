"""Simulation service: artifact cache, warm engine, coalescing.

The service tentpole's contracts, pinned:

* **Key stability** — a :class:`SimulationSpec`'s artifact key is a
  pure function of its content: bitwise-equal specs share a key, any
  perturbed field (including a single material-model scalar) changes
  it.
* **Bit identity** — a warm (memory-hit), disk-warm (CRC-verified
  load), or coalesced (batched-column) run produces exactly the bits
  of a cold solo run; caching and coalescing are invisible to the
  numbers.
* **Corruption rejection** — a flipped byte anywhere in a disk
  artifact is detected (CRC/header) and the entry is rebuilt, never
  served.
* **Pool hygiene** — the engine's persistent worker pools shut down
  and re-attach explicitly without leaking ``/dev/shm`` segments, on
  both transports.

Plus the satellite caches: the keyed fold LRU in the element kernels
and the process-wide transport-calibration memo.
"""

import os
import time

import numpy as np
import pytest

from repro.materials import HomogeneousMaterial
from repro.mesh import extract_mesh, rcb_partition
from repro.octree import build_adaptive_octree
from repro.parallel import DistributedWaveSolver, ProcWorld, SimWorld
from repro.parallel.transport import _SHM_REGISTRY
from repro.service import (
    ArtifactCache,
    CacheCorruptError,
    CoalescingScheduler,
    Engine,
    ForwardRequest,
    SimulationSpec,
    artifact_key,
    fingerprint,
    load_artifact,
    save_artifact,
)
from repro.solver import ElasticWaveSolver
from repro.sources import idealized_northridge, idealized_strike_slip

MAT = HomogeneousMaterial(vs=1000.0, vp=1800.0, rho=2000.0)

SPEC_KW = dict(
    material=MAT,
    L=8000.0,
    fmax=0.4,
    box_frac=(1, 1, 0.5),
    max_level=3,
)


def make_spec(**overrides) -> SimulationSpec:
    kw = dict(SPEC_KW)
    kw.update(overrides)
    return SimulationSpec(**kw)


RECEIVERS = np.array([[4000.0, 4000.0, 0.0], [2000.0, 3000.0, 0.0]])


# ---------------------------------------------------------------- keys


def test_fingerprint_is_stable_and_content_sensitive():
    a = {"x": 1.0, "arr": np.arange(4.0), "nested": (1, [2, 3], None)}
    b = {"nested": (1, [2, 3], None), "arr": np.arange(4.0), "x": 1.0}
    assert fingerprint(a) == fingerprint(b)  # dict order is irrelevant
    c = {"x": 1.0, "arr": np.arange(4.0), "nested": (1, [2, 4], None)}
    assert fingerprint(a) != fingerprint(c)
    # dtype and shape are identity, not just bytes
    assert fingerprint(np.zeros(4)) != fingerprint(np.zeros(4, np.float32))
    assert fingerprint(np.zeros((2, 2))) != fingerprint(np.zeros(4))
    # floats hash by exact value
    assert fingerprint(0.1) != fingerprint(0.1 + 1e-16)
    assert artifact_key(a=1, b=2) == artifact_key(b=2, a=1)


def test_spec_key_stable_across_instances():
    assert make_spec().key == make_spec().key
    # a materially identical model object hashes equal too
    mat2 = HomogeneousMaterial(vs=1000.0, vp=1800.0, rho=2000.0)
    assert make_spec().key == make_spec(material=mat2).key


def test_spec_key_is_pinned():
    """The README example's content address does not move, so disk-tier
    artifacts written by earlier versions stay addressable."""
    key = make_spec(max_level=4).key
    assert key == "15a8e347603185b2b186d174823d65cc99951043"


@pytest.mark.parametrize(
    "override",
    [
        {"fmax": 0.401},
        {"L": 8001.0},
        {"max_level": 4},
        {"points_per_wavelength": 9.0},
        {"h_min": 1.0},
        {"damping_ratio": 0.01},
        {"stacey_c1": False},
        {"cfl_safety": 0.45},
        {"lts": 4},
        {"dtype": "float32"},
        {"material": HomogeneousMaterial(vs=1000.1, vp=1800.0, rho=2000.0)},
    ],
)
def test_spec_key_sensitive_to_every_field(override):
    assert make_spec().key != make_spec(**override).key


# ------------------------------------------------------- warm bit identity


@pytest.fixture(scope="module")
def warm_engine():
    eng = Engine()
    yield eng
    eng.close()


def test_warm_hit_is_bitwise_identical(warm_engine):
    spec = make_spec()
    scenario = idealized_strike_slip(L=spec.L)
    t_end = 15 * warm_engine.simulation(spec).dt
    cold_stats = warm_engine.stats()
    a = warm_engine.submit(spec, scenario, t_end, receivers=RECEIVERS)
    b = warm_engine.submit(spec, scenario, t_end, receivers=RECEIVERS)
    assert warm_engine.stats()["hits"] > cold_stats["hits"]
    assert np.array_equal(a.seismograms.data, b.seismograms.data)
    # and identical to a cold, cache-free library run
    direct = spec.build().run(scenario, t_end, receivers=RECEIVERS)
    assert np.array_equal(a.seismograms.data, direct.seismograms.data)


def test_warm_setup_is_at_least_10x_faster_than_cold():
    # a memory-tier hit skips octree, mesh and operator construction
    # (the perfbench rows service.cache_cold_s / cache_warm_s read
    # three orders of magnitude apart)
    spec = make_spec()
    cold, warm = [], []
    for _ in range(3):
        with Engine() as eng:
            t0 = time.perf_counter()
            eng.simulation(spec)
            t1 = time.perf_counter()
            eng.simulation(spec)
            t2 = time.perf_counter()
            assert eng.stats()["hits"] == 1
        cold.append(t1 - t0)
        warm.append(t2 - t1)
    assert np.median(cold) / np.median(warm) >= 10.0


# ------------------------------------------------------------ disk tier


def test_disk_tier_roundtrip_bit_identity(tmp_path):
    spec = make_spec()
    scenario = idealized_northridge(L=spec.L)
    with Engine(disk_dir=str(tmp_path)) as eng:
        sim = eng.simulation(spec)
        t_end = 12 * sim.dt
        ref = eng.submit(spec, scenario, t_end, receivers=RECEIVERS)
        assert eng.stats()["misses"] == 1
    # a fresh engine (new-process stand-in) must serve the artifact
    # from disk and reproduce the run bit-for-bit
    with Engine(disk_dir=str(tmp_path)) as fresh:
        got = fresh.submit(spec, scenario, t_end, receivers=RECEIVERS)
        st = fresh.stats()
        assert st["disk_hits"] == 1 and st["misses"] == 0
        assert got.seismograms.dt == ref.seismograms.dt
        assert np.array_equal(got.seismograms.data, ref.seismograms.data)


def test_save_load_artifact_validates(tmp_path):
    path = str(tmp_path / "a.artifact")
    payload = {"arr": np.arange(10.0), "x": 3}
    save_artifact(path, "k" * 40, payload)
    back = load_artifact(path, key="k" * 40)
    assert np.array_equal(back["arr"], payload["arr"])
    with pytest.raises(CacheCorruptError):
        load_artifact(path, key="wrong" * 8)  # served under another key


@pytest.mark.parametrize("offset", [0, 5, 30, -10])
def test_disk_corruption_rejected(tmp_path, offset):
    path = str(tmp_path / "a.artifact")
    save_artifact(path, "k" * 40, {"arr": np.arange(64.0)})
    data = bytearray(open(path, "rb").read())
    data[offset] ^= 0x40  # flip one bit: magic, header, or payload
    with open(path, "wb") as f:
        f.write(bytes(data))
    with pytest.raises(CacheCorruptError):
        load_artifact(path, key="k" * 40)


def test_cache_rebuilds_after_corruption(tmp_path):
    cache = ArtifactCache(2, disk_dir=str(tmp_path))
    builds = []

    def build():
        builds.append(1)
        return {"v": np.arange(8.0)}

    cache.get_or_build("deadbeef", build)
    files = os.listdir(tmp_path)
    assert len(files) == 1
    fpath = tmp_path / files[0]
    raw = bytearray(fpath.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    fpath.write_bytes(bytes(raw))
    # a fresh cache over the same dir must detect, drop, and rebuild
    fresh = ArtifactCache(2, disk_dir=str(tmp_path))
    out = fresh.get_or_build("deadbeef", build)
    assert np.array_equal(out["v"], np.arange(8.0))
    assert len(builds) == 2
    assert fresh.stats()["corrupt_rejections"] == 1
    # the corrupt file was replaced by a valid one
    again = ArtifactCache(2, disk_dir=str(tmp_path))
    again.get_or_build("deadbeef", build)
    assert len(builds) == 2 and again.stats()["disk_hits"] == 1


def test_lru_eviction_bounds_memory():
    cache = ArtifactCache(2)
    for i in range(4):
        cache.put(f"k{i}", i)
    assert len(cache) == 2
    assert "k0" not in cache and "k3" in cache
    assert cache.stats()["evictions"] == 2


# ----------------------------------------------------------- coalescing


def test_coalesced_columns_bitwise_equal_solo(warm_engine):
    spec = make_spec()
    sim = warm_engine.simulation(spec)
    t_end = 12 * sim.dt
    scenarios = [
        idealized_strike_slip(L=spec.L),
        idealized_northridge(L=spec.L),
        idealized_strike_slip(L=spec.L),
    ]
    requests = [
        ForwardRequest(spec, sc, t_end, receivers=RECEIVERS)
        for sc in scenarios
    ]
    with CoalescingScheduler(warm_engine, max_batch=len(requests)) as sched:
        coalesced = sched.map_wait(requests)
        stats = sched.stats()
    assert stats["batches"] == 1  # all three shared one fused loop
    assert stats["coalesced"] == 2
    for sc, seis in zip(scenarios, coalesced):
        solo = warm_engine.submit(spec, sc, t_end, receivers=RECEIVERS)
        assert np.array_equal(seis.data, solo.seismograms.data)


def test_incompatible_requests_do_not_coalesce(warm_engine):
    spec = make_spec()
    sim = warm_engine.simulation(spec)
    scenario = idealized_strike_slip(L=spec.L)
    requests = [
        ForwardRequest(spec, scenario, 10 * sim.dt, receivers=RECEIVERS),
        ForwardRequest(spec, scenario, 11 * sim.dt, receivers=RECEIVERS),
    ]
    assert requests[0].group_key() != requests[1].group_key()
    with CoalescingScheduler(warm_engine, max_batch=4) as sched:
        results = sched.map_wait(requests)
        assert sched.stats()["batches"] == 2
    for req, seis in zip(requests, results):
        solo = warm_engine.submit(
            req.spec, req.scenario, req.t_end, receivers=req.receivers
        )
        assert np.array_equal(seis.data, solo.seismograms.data)


def test_scheduler_rejects_after_close(warm_engine):
    sched = CoalescingScheduler(warm_engine)
    sched.close()
    with pytest.raises(RuntimeError):
        sched.submit(
            ForwardRequest(make_spec(), None, 0.1)
        )


# ------------------------------------------------- pools & transports


def _shm_names():
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # non-Linux: nothing to check
        return set()


class PointForce:
    """Picklable point force (worker processes unpickle it by value)."""

    def __init__(self, node: int, nnode: int):
        self.node = node
        self.nnode = nnode

    def __call__(self, t, out=None):
        # (t) for the distributed solver, (t, out) for the serial one
        b = np.zeros((self.nnode, 3)) if out is None else out
        b.fill(0.0)
        b[self.node, 2] = 1e9 * np.exp(-(((t - 0.02) / 0.008) ** 2))
        return b


def _dist_problem():
    n = 4
    tree = build_adaptive_octree(
        lambda c, s: np.full(len(c), 1.0 / n), max_level=2
    )
    mesh = extract_mesh(tree, L=1000.0)
    force = PointForce(mesh.nnode // 2, mesh.nnode)
    parts = rcb_partition(mesh.elem_centers, 2)
    return mesh, tree, force, parts


def test_pool_shutdown_reattach_no_shm_leak():
    before = _shm_names()
    engine = Engine()
    world = engine.pool(2)
    assert engine.pool(2) is world  # same key -> same pool
    mesh, tree, forces, parts = _dist_problem()
    solver = DistributedWaveSolver(mesh, MAT, parts, world, dt=1e-4)
    u1 = solver.run(forces, 10.5e-4)
    engine.close()  # explicit park between traffic bursts
    assert world.closed
    assert _SHM_REGISTRY == {}
    # re-attach: the engine hands back a running pool and the run
    # reproduces the pre-shutdown bits
    world2 = engine.pool(2)
    solver = DistributedWaveSolver(mesh, MAT, parts, world2, dt=1e-4)
    u2 = solver.run(forces, 10.5e-4)
    assert np.array_equal(u1, u2)
    engine.close()
    time.sleep(0.1)  # let the resource tracker settle
    assert _SHM_REGISTRY == {}
    assert not (_shm_names() - before), "leaked /dev/shm segments"


def test_ensure_running_revives_closed_and_dead_worlds():
    world = ProcWorld(2)
    try:
        world.close()
        assert world.closed
        world.ensure_running()
        assert not world.closed
        out = world.run_spmd(_rank_program, [None, None])
        assert out == [0, 1]
    finally:
        world.close()


def _rank_program(comm, payload):
    return comm.rank


def test_distributed_bitwise_on_both_transports_via_pool():
    """Warm-pool reruns must be *bit-identical* on both transports
    (the service's reuse contract), and both transports must agree
    with the serial solver up to interface-sum reordering."""
    mesh, tree, force, parts = _dist_problem()
    serial = ElasticWaveSolver(mesh, tree, MAT, stacey_c1=False)
    t_end = 10.5 * serial.dt
    nsteps = int(np.ceil(t_end / serial.dt))
    out = {}

    def cb(k, t, u):
        if k == nsteps:
            out["u"] = u.copy()

    serial.run(force, (nsteps + 1) * serial.dt, callback=cb)
    u_ref = out["u"]

    dist = DistributedWaveSolver(
        mesh, MAT, parts, SimWorld(2), dt=serial.dt
    )
    u_sim = dist.run(force, t_end)
    assert np.array_equal(u_sim, dist.run(force, t_end))  # rerun: same bits
    np.testing.assert_allclose(u_sim, u_ref, rtol=1e-9, atol=1e-14)

    engine = Engine()
    try:
        world = engine.pool(2)
        dist = DistributedWaveSolver(mesh, MAT, parts, world, dt=serial.dt)
        u_proc = dist.run(force, t_end)
        # the two transports run the identical rank arithmetic
        assert np.array_equal(u_proc, u_sim)
        # pooled reuse: a second run on the same warm world is
        # bit-identical too
        assert np.array_equal(dist.run(force, t_end), u_proc)
    finally:
        engine.close()


# ------------------------------------------------- bound handles


def test_kernel_and_outstanding_handle_pickle_roundtrip():
    """A coefficient-free kernel and a handle bound by it survive the
    disk tier's pickle side by side: the restored pair applies bitwise
    like the originals, alternating with a second material through the
    same kernel."""
    import pickle

    from repro.backend import get_backend
    from repro.mesh import uniform_hex_mesh

    mesh = uniform_hex_mesh(2, L=1.0)
    K_ref = np.eye(8) + 0.25
    rng = np.random.default_rng(7)
    coef_a = rng.random(mesh.nelem) + 1.0
    coef_b = rng.random(mesh.nelem) + 2.0
    u = rng.standard_normal(mesh.nnode)
    U = rng.standard_normal((mesh.nnode, 3))

    kern = get_backend().element_kernel(mesh.conn, (K_ref,), mesh.nnode)
    h_a, h_b = kern.bind((coef_a,)), kern.bind((coef_b,))
    ref = {
        name: get_backend().element_kernel(
            mesh.conn, (K_ref,), mesh.nnode, coefs=(coef,)
        ).matvec(u, np.empty(mesh.nnode)).copy()
        for name, coef in [("a", coef_a), ("b", coef_b)]
    }
    kern.matmat(U, np.empty_like(U), h_a)  # size the lazy workspace too
    kern2, h_a2 = pickle.loads(pickle.dumps((kern, h_a)))
    out = np.empty(mesh.nnode)
    for k, ha in [(kern, h_a), (kern2, h_a2)]:
        for name, h in [("a", ha), ("b", h_b)] * 3:
            assert np.array_equal(k.matvec(u, out, h), ref[name])
    assert np.array_equal(
        kern2.matmat(U, np.empty_like(U), h_a2),
        kern.matmat(U, np.empty_like(U), h_a),
    )
    # a kernel bound at construction takes no coefficients afterwards,
    # and one built without them needs a handle
    fixed = get_backend().element_kernel(
        mesh.conn, (K_ref,), mesh.nnode, coefs=(coef_a,)
    )
    with pytest.raises(ValueError):
        fixed.bind((coef_b,))
    with pytest.raises(ValueError):
        kern.matvec(u, out)
    with pytest.raises(ValueError):
        kern.matvec(u, out, h_a[:-1])
