"""What the benchmark declares: workloads, end-to-end metrics with
their bounds, and per-layer metrics with the end-to-end metric and
workloads each one should move.

``BENCHMARK.json`` at the repo root is :func:`benchmark_json` written
out (``python3 perfbench/metrics.py`` prints it); ``test_perfbench.py``
fails when the two drift apart.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

#: how long one run measures (the driver passes it back as --seconds)
RUN_SECONDS = 10

WORKLOADS = [
    {
        "name": "basin_forward",
        "why": "The paper's problem: adaptive octree with hanging nodes, "
        "Stacey c1, Rayleigh damping, serial loop, single-RHS matvec; "
        "batching, transport and service do nothing here.",
    },
    {
        "name": "ensemble_batch",
        "why": "16 scenarios through Engine.submit_batch: the same kernel "
        "layer used as multi-RHS matmat (GEMM + block scatter); a kernel "
        "change that helps matvec and costs matmat splits from "
        "basin_forward here.",
    },
    {
        "name": "lts_two_layer",
        "why": "Soft-over-stiff scalar model whose clustered LTS schedule "
        "has a 4.1x theoretical speedup; the only workload where "
        "_march_lts and its per-level kernels do the work.",
    },
    {
        "name": "dist_2rank",
        "why": "Two ProcWorld worker processes on a 32^3 mesh: transport, "
        "halo exchange, wait and result gather, with the pool kept warm "
        "across passes.",
    },
    {
        "name": "serve_open",
        "why": "Open loop, 5 req/s Poisson arrivals through the real CLI: "
        "submit, spool, claim, queue, coalesce, solve, demux, .npz; mostly "
        "fixed waits and spool I/O, so it isolates service + cli from "
        "the solver.",
    },
    {
        "name": "inverse_gn",
        "why": "Multiscale Gauss-Newton-CG material inversion: the other "
        "half of the paper; exercises inverse/ and the scalar march, "
        "bypasses the elastic kernel, and stores forward states (the "
        "memory workload).",
    },
]

#: An *op* is one pass of a closed-loop workload or one request of
#: serve_open.  Every metric is reported on every workload (the
#: driver's contract), so each has one definition that covers both.
#: Every timing sits at the contract's cap: on the reference host the
#: run-to-run spread reaches 0.03-0.08 in a calm hour and 0.15-0.20 in
#: a noisy one, even corrected for host speed (README, Repeatability).
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "elem_steps_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    {"name": "request_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
]

ALL = tuple(w["name"] for w in WORKLOADS)
FORWARD = ("basin_forward", "ensemble_batch", "serve_open")


@dataclass(frozen=True)
class Layer:
    """One per-layer metric: ``on`` names the workloads whose traced
    run measures it (the others print 0: the layer did no work there);
    ``moves``/``moves_on`` are the end-to-end metric and workloads a
    change to this number is predicted to show up in."""

    name: str
    unit: str
    better: str
    on: tuple
    moves: str
    moves_on: tuple


def _layers(on, moves, moves_on, *rows):
    return [Layer(n, u, b, tuple(on), moves, tuple(moves_on))
            for n, u, b in rows]


PER_LAYER = [
    # octree / mesh / solver construction
    *_layers(
        ["basin_forward"], "setup_s", FORWARD,
        ("octree.build_s", "s", "lower"),
        ("octree.leaves", "count", "lower"),
        ("mesh.extract_s", "s", "lower"),
        ("mesh.elements", "count", "lower"),
        ("mesh.hanging_frac", "ratio", "lower"),
        ("solver.construct_s", "s", "lower"),
    ),
    # host references, measured in the same run as the kernels
    *_layers(
        ["basin_forward", "ensemble_batch", "dist_2rank"],
        "solve_s", ["basin_forward", "ensemble_batch", "dist_2rank"],
        ("host.triad_gbps", "GB/s", "higher"),
        ("host.gemm_gflops", "Gflop/s", "higher"),
    ),
    # backend: single-RHS kernel
    *_layers(
        ["basin_forward", "ensemble_batch", "dist_2rank"],
        "solve_s", ["basin_forward", "dist_2rank"],
        ("backend.matvec_s", "s", "lower"),
        ("backend.matvec_gflops", "Gflop/s", "higher"),
        ("backend.matvec_gbps_computed", "GB/s", "higher"),
        ("backend.matvec_frac_of_triad", "ratio", "higher"),
    ),
    # backend: 16-RHS kernel
    *_layers(
        ["ensemble_batch"], "solve_s", ["ensemble_batch"],
        ("backend.matmat16_s_per_col", "s", "lower"),
        ("backend.matmat16_gflops", "Gflop/s", "higher"),
        ("backend.matmat16_frac_of_gemm", "ratio", "higher"),
        ("backend.matmat16_vs_matvec", "ratio", "lower"),
    ),
    # solver
    *_layers(
        ["basin_forward"], "solve_s", ["basin_forward"],
        ("solver.step_s", "s", "lower"),
        ("solver.kernel_share", "ratio", "lower"),
        ("solver.checkpoint_s", "s", "lower"),
        ("solver.checkpoint_mb", "MB", "lower"),
    ),
    *_layers(
        ["ensemble_batch"], "solve_s", ["ensemble_batch"],
        ("solver.batch_step_s", "s", "lower"),
        ("solver.batch_kernel_share", "ratio", "lower"),
        ("solver.batch_speedup", "ratio", "higher"),
    ),
    *_layers(
        ["lts_two_layer"], "solve_s", ["lts_two_layer"],
        ("solver.lts_speedup", "ratio", "higher"),
        ("solver.lts_theoretical", "ratio", "higher"),
        ("solver.lts_efficiency", "ratio", "higher"),
        ("solver.lts_rel_err", "ratio", "lower"),
    ),
    # parallel
    *_layers(
        ["dist_2rank"], "solve_s", ["dist_2rank"],
        ("parallel.compute_s_max", "s", "lower"),
        ("parallel.exchange_s_max", "s", "lower"),
        ("parallel.wait_s_max", "s", "lower"),
        ("parallel.wait_frac", "ratio", "lower"),
        ("parallel.imbalance", "ratio", "lower"),
        ("parallel.msgs_per_step", "count", "lower"),
        ("parallel.bytes_per_step", "B", "lower"),
        ("parallel.efficiency", "ratio", "higher"),
        ("parallel.run_fixed_s", "s", "lower"),
        ("parallel.alpha_s", "s", "lower"),
        ("parallel.beta_gbps", "GB/s", "higher"),
    ),
    *_layers(
        ["dist_2rank"], "setup_s", ["dist_2rank"],
        ("parallel.pool_spawn_s", "s", "lower"),
    ),
    # service
    *_layers(
        ["ensemble_batch"], "setup_s", ["serve_open", "ensemble_batch"],
        ("service.cache_cold_s", "s", "lower"),
        ("service.cache_warm_s", "s", "lower"),
        ("service.cache_disk_s", "s", "lower"),
    ),
    *_layers(
        ["ensemble_batch"], "request_p50_s", ["serve_open"],
        ("service.spec_key_s", "s", "lower"),
        ("service.sched_overhead", "ratio", "lower"),
    ),
    *_layers(
        ["serve_open"], "request_p50_s", ["serve_open"],
        ("service.queue_s_p50", "s", "lower"),
        ("service.coalesce_s_p50", "s", "lower"),
        ("service.solve_s_p50", "s", "lower"),
        ("service.demux_s_p50", "s", "lower"),
        ("service.total_s_p50", "s", "lower"),
        ("service.mean_batch", "count", "higher"),
    ),
    # cli
    *_layers(
        ["serve_open"], "setup_s", ["serve_open"],
        ("cli.serve_start_s", "s", "lower"),
    ),
    *_layers(
        ["serve_open"], "request_p50_s", ["serve_open"],
        ("cli.submit_s_first10", "s", "lower"),
        ("cli.submit_s_last10", "s", "lower"),
        ("cli.outside_service_s_p50", "s", "lower"),
        ("cli.npz_kb", "kB", "lower"),
        # the tail of the same latency: the highest percentile with
        # ten of the traced run's 50 requests beyond it.  Not an
        # end-to-end metric: one host stall of a few tenths of a second
        # sets it, and the spread of the issue's p90 over ten runs
        # reached 0.2-0.9 of its median against a bound that may be
        # 0.25 at most (README, End-to-end metrics)
        ("cli.request_p80_s", "s", "lower"),
    ),
    # inverse
    *_layers(
        ["inverse_gn"], "solve_s", ["inverse_gn"],
        ("inverse.forward_s", "s", "lower"),
        ("inverse.gradient_s", "s", "lower"),
        ("inverse.hessvec_s", "s", "lower"),
        ("inverse.newton_iters", "count", "lower"),
        ("inverse.cg_iters", "count", "lower"),
        ("inverse.model_err", "ratio", "lower"),
    ),
    *_layers(
        ["inverse_gn"], "peak_rss_mb", ["inverse_gn"],
        ("inverse.state_mb", "MB", "lower"),
    ),
    # telemetry / tracing / load generator
    *_layers(
        ["basin_forward"], "solve_s", ["basin_forward"],
        ("telemetry.enabled_overhead_frac", "ratio", "lower"),
    ),
    *_layers(
        ALL, "solve_s", ALL,
        ("trace.overhead_frac", "ratio", "lower"),
    ),
    *_layers(
        ["serve_open"], "request_p50_s", ["serve_open"],
        ("loadgen.late_s_p80", "s", "lower"),
    ),
]


def benchmark_json() -> dict:
    """The root ``BENCHMARK.json``, with exactly the contract's keys."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
