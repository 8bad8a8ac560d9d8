"""Backend-layer measurements shared by the workloads that run the
elastic kernel: ``ElasticOperator.matvec`` / ``matmat`` on the
workload's own mesh, next to the host's bandwidth and GEMM rate."""

from __future__ import annotations

import statistics
import time

import numpy as np

from perfbench import host

CALLS = 30   # matvec calls; the metric is their median
BATCH = 16   # matmat width


def host_references(tracer) -> dict:
    with tracer.span("host.triad"):
        tri = host.triad()
    with tracer.span("host.gemm"):
        gm = host.gemm()
    print(f"  host: triad arrays {tri['array_bytes'] / 1e6:.0f} MB each, "
          f"last-level cache {tri['llc_bytes'] / 1e6:.0f} MB; "
          f"gemm n={gm['n']}")
    return {"host.triad_gbps": tri["gbps"], "host.gemm_gflops": gm["gflops"]}


def _median_call(fn, calls: int) -> float:
    fn()  # warm-up
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def compulsory_bytes(op) -> int:
    """Bytes one matvec must move whatever the kernel does inside:
    read u, the connectivity and both coefficient arrays, write out.
    Computed from array sizes (cache misses and the kernel's own
    intermediates are not in it)."""
    ndof = 3 * op.nnode
    return 8 * (2 * ndof + op.nelem * 8 + 2 * op.nelem)


def matvec_metrics(op, tracer, measured: dict) -> dict:
    """``measured`` must already hold the host references."""
    u = np.random.default_rng(0).standard_normal((op.nnode, 3))
    out = np.empty_like(u)
    with tracer.span("backend.matvec"):
        t = _median_call(lambda: op.matvec(u, out=out), CALLS)
    gbps = compulsory_bytes(op) / t / 1e9
    return {
        "backend.matvec_s": t,
        "backend.matvec_gflops": op.flops_per_matvec / t / 1e9,
        "backend.matvec_gbps_computed": gbps,
        "backend.matvec_frac_of_triad": gbps / measured["host.triad_gbps"],
    }


def matmat_metrics(op, tracer, measured: dict) -> dict:
    """``measured`` must already hold the host references and
    ``backend.matvec_s`` of the same operator."""
    U = np.random.default_rng(0).standard_normal((op.nnode, 3, BATCH))
    out = np.empty_like(U)
    with tracer.span("backend.matmat16"):
        t = _median_call(lambda: op.matmat(U, out=out), CALLS // 3)
    gflops = op.flops_per_matmat(BATCH) / t / 1e9
    return {
        "backend.matmat16_s_per_col": t / BATCH,
        "backend.matmat16_gflops": gflops,
        "backend.matmat16_frac_of_gemm": gflops / measured["host.gemm_gflops"],
        # below 1: batching pays at the kernel
        "backend.matmat16_vs_matvec": t / BATCH / measured["backend.matvec_s"],
    }
