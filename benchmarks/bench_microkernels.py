"""Microbenchmarks of the solver's hot kernels.

Unlike the table/figure reproductions (single-shot simulations), these
use pytest-benchmark's statistical repetition: they track the
throughput of the operations the paper's performance engineering is
about — the element-based dense matvec (vs CSR), the scalar-wave
kernel, the hanging-node projection, and Morton encoding.

Run directly (``python benchmarks/bench_microkernels.py --json``) to
emit ``BENCH_kernels.json``: per-backend matvec throughput
(matvecs/s, effective GB/s) and the speedup over the seed's
``np.bincount`` scatter, which is kept here as the reference
implementation.
"""

import argparse
import json
import time

import numpy as np

try:
    import pytest
except ImportError:  # pragma: no cover - direct --json invocation only
    pytest = None

from repro.backend import available_backends, use_backend
from repro.fem import ElasticOperator, assemble_csr
from repro.fem.hex_element import hex_elastic_reference
from repro.mesh import build_constraints, extract_mesh, uniform_hex_mesh
from repro.octree import balance_octree, build_adaptive_octree, morton_encode
from repro.solver import RegularGridScalarWave


class BincountMatvec:
    """The seed implementation of the elastic matvec: fresh per-call
    scaling passes and a ``np.bincount`` scatter.  Kept as the baseline
    the planned kernels are measured against."""

    def __init__(self, conn, h, lam, mu, nnode):
        self.nnode = int(nnode)
        self.conn = conn
        self.nelem = len(conn)
        K_l, K_m = hex_elastic_reference()
        self.K_l, self.K_m = K_l, K_m
        self.c_lam = lam * h
        self.c_mu = mu * h
        dof = (conn[:, :, None] * 3 + np.arange(3)[None, None, :]).reshape(
            self.nelem, 24
        )
        self._dof_flat = dof.ravel()

    def matvec(self, u):
        U = u.reshape(self.nnode, 3)[self.conn].reshape(self.nelem, 24)
        Y = (U @ self.K_l.T) * self.c_lam[:, None]
        Y += (U @ self.K_m.T) * self.c_mu[:, None]
        out = np.bincount(
            self._dof_flat, weights=Y.ravel(), minlength=3 * self.nnode
        )
        return out.reshape(self.nnode, 3)


@pytest.fixture(scope="module")
def hex_problem():
    mesh = uniform_hex_mesh(16, L=1000.0)
    lam = np.full(mesh.nelem, 2e9)
    mu = np.full(mesh.nelem, 1e9)
    op = ElasticOperator(mesh.conn, mesh.elem_h, lam, mu, mesh.nnode)
    A = assemble_csr(mesh.conn, mesh.elem_h, lam, mu, mesh.nnode)
    rng = np.random.default_rng(0)
    u = rng.standard_normal((mesh.nnode, 3))
    return mesh, op, A, u


def test_element_matvec_throughput(benchmark, hex_problem):
    mesh, op, A, u = hex_problem
    benchmark(op.matvec, u)
    benchmark.extra_info["elements"] = mesh.nelem
    benchmark.extra_info["flops_per_apply"] = op.flops_per_matvec


def test_csr_matvec_throughput(benchmark, hex_problem):
    mesh, op, A, u = hex_problem
    v = u.ravel()
    benchmark(lambda: A @ v)


def test_scalar_wave_kernel(benchmark):
    s = RegularGridScalarWave((64, 64), 10.0, 1000.0)
    mu = np.full(s.nelem, 1e9)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(s.nnode)
    K = s.bind_K(mu)  # as the time loops do: bind once, apply per step
    benchmark(s.apply_K_bound, K, u)


def test_hanging_projection(benchmark):
    def target(c, s):
        return np.where(np.all(c < 0.5, axis=1), 1 / 16, 1 / 8)

    tree = balance_octree(build_adaptive_octree(target, max_level=5))
    mesh = extract_mesh(tree, L=1000.0)
    info = build_constraints(tree, mesh)
    rng = np.random.default_rng(2)
    r = rng.standard_normal((mesh.nnode, 3))
    B, BT = info.B, info.B.T.tocsr()

    def project():
        return B @ (BT @ r)

    benchmark(project)
    benchmark.extra_info["hanging"] = info.n_hanging


def test_morton_encode_throughput(benchmark):
    rng = np.random.default_rng(3)
    pts = rng.integers(0, 2**16, size=(1_000_000, 3)).astype(np.uint64)
    benchmark(morton_encode, pts[:, 0], pts[:, 1], pts[:, 2])


# ----------------------------------------------------- JSON bench mode


def _time_interleaved(fns, *, repeat=7, min_time=0.05):
    """Best-of-``repeat`` seconds per call for each callable, with the
    repeats *interleaved* across callables so slow machine phases (CPU
    frequency, co-tenants) hit every candidate equally and ratios stay
    honest.  The minimum is the least noise-contaminated estimator;
    inner loops are sized for timer resolution."""
    counts = []
    for fn in fns:
        fn()  # warmup (JIT compilation, lazy folds, page faults)
        n = 1
        while True:
            t0 = time.perf_counter()
            for _ in range(n):
                fn()
            if time.perf_counter() - t0 >= min_time:
                break
            n *= 2
        counts.append(n)
    best = [np.inf] * len(fns)
    for _ in range(repeat):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            for _ in range(counts[i]):
                fn()
            best[i] = min(
                best[i], (time.perf_counter() - t0) / counts[i]
            )
    return [float(b) for b in best]


def _time(fn, *, repeat=7, min_time=0.05):
    return _time_interleaved([fn], repeat=repeat, min_time=min_time)[0]


def _matvec_traffic_bytes(op: ElasticOperator) -> int:
    """Effective memory traffic of one planned matvec: gather read +
    workspace write/read around the GEMM, folded scatter streams, and
    the output vector."""
    k = op._kernel
    n_U = k._U.nbytes
    n_Y = k._Y.nbytes
    return (
        k.dof.nbytes  # gather indices
        + n_U  # gathered values written
        + n_U + n_Y  # GEMM read + write
        + n_Y  # scatter reads the block
        + k._data.nbytes  # folded coefficients
        + k.plan.indices.nbytes  # scatter indices
        + 2 * 8 * k.ndof  # output read+write (accumulate)
    )


def run_json_bench(n: int = 16, repeat: int = 7) -> dict:
    mesh = uniform_hex_mesh(n, L=1000.0)
    lam = np.full(mesh.nelem, 2e9)
    mu = np.full(mesh.nelem, 1e9)
    rng = np.random.default_rng(0)
    u = rng.standard_normal((mesh.nnode, 3))

    ref = BincountMatvec(mesh.conn, mesh.elem_h, lam, mu, mesh.nnode)

    results = {
        "problem": {
            "mesh": f"uniform_hex_{n}",
            "nelem": int(mesh.nelem),
            "nnode": int(mesh.nnode),
            "ndof": int(3 * mesh.nnode),
        },
        "reference": {
            "kernel": "bincount_matvec (seed implementation)",
        },
        "backends": {},
    }

    t_ref = np.inf
    for name in available_backends():
        with use_backend(name):
            op = ElasticOperator(
                mesh.conn, mesh.elem_h, lam, mu, mesh.nnode
            )
            out = np.empty((mesh.nnode, 3))
            # interleave kernel and reference: the ratio survives load
            t_op, t_ref_i = _time_interleaved(
                [lambda: op.matvec(u, out=out), lambda: ref.matvec(u)],
                repeat=repeat,
            )
            t_ref = min(t_ref, t_ref_i)
            traffic = _matvec_traffic_bytes(op)

            s = RegularGridScalarWave((64, 64), 10.0, 1000.0)
            mu_s = np.full(s.nelem, 1e9)
            us = rng.standard_normal(s.nnode)
            outs = np.empty(s.nnode)
            K_s = s.bind_K(mu_s)  # time loops bind once, apply per step
            t_sc = _time(
                lambda: s.apply_K_bound(K_s, us, out=outs), repeat=repeat
            )

        results["backends"][name] = {
            "elastic_matvec": {
                "seconds_per_matvec": t_op,
                "matvecs_per_s": 1.0 / t_op,
                "gbytes_per_s": traffic / t_op / 1e9,
                "speedup_vs_bincount": t_ref_i / t_op,
            },
            "scalar_apply_K": {
                "seconds_per_apply": t_sc,
                "applies_per_s": 1.0 / t_sc,
            },
        }
    results["reference"]["seconds_per_matvec"] = t_ref
    results["reference"]["matvecs_per_s"] = 1.0 / t_ref
    return results


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--json",
        nargs="?",
        const="BENCH_kernels.json",
        default=None,
        metavar="PATH",
        help="emit kernel throughput JSON (default: BENCH_kernels.json)",
    )
    ap.add_argument("--size", type=int, default=16, help="mesh n per side")
    ap.add_argument("--repeat", type=int, default=7)
    args = ap.parse_args(argv)
    results = run_json_bench(n=args.size, repeat=max(1, args.repeat))
    text = json.dumps(results, indent=2)
    if args.json:
        with open(args.json, "w") as f:
            f.write(text + "\n")
    print(text)
    for name, r in results["backends"].items():
        print(
            f"[{name}] matvec {r['elastic_matvec']['matvecs_per_s']:.1f}/s, "
            f"{r['elastic_matvec']['gbytes_per_s']:.2f} GB/s, "
            f"{r['elastic_matvec']['speedup_vs_bincount']:.2f}x vs bincount"
        )


if __name__ == "__main__":
    main()
