#!/usr/bin/env python3
"""The repo benchmark.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace [0|1]] [--json OUT]

With ``--workload`` it runs that workload in this process, prints every
metric by name with its unit and sample count, checks the outputs, and
ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics, or with ``--trace`` the per-layer
metrics (and ``perfbench/out/trace-<workload>.jsonl``).  Without
``--workload`` it runs all six one after another, each in a fresh
process.  ``--json OUT`` appends the full records (host fingerprint,
checks, sample counts) to ``OUT`` for ``compare.py``.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit("perfbench: src/repro not found next to perfbench/; "
             "the benchmark measures the program in this checkout")
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

import perfbench  # noqa: E402

perfbench.pin_blas_threads()  # before numpy loads

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

from perfbench import host  # noqa: E402
from perfbench.harness import OUT_DIR, Result, run_closed_loop  # noqa: E402
from perfbench.metrics import (  # noqa: E402
    END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
)

NAMES = [w["name"] for w in WORKLOADS]
UNITS = {m["name"]: m["unit"] for m in END_TO_END}
UNITS.update({m.name: m.unit for m in PER_LAYER})


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Result:
    if name == "serve_open":
        from perfbench.workloads import serve_open

        return serve_open.run(seed, seconds, trace)
    from perfbench.workloads import closed_loop

    return run_closed_loop(closed_loop(name), seed, seconds, trace)


def record(res: Result, seconds: float) -> dict:
    """The full record of one run, as ``--json`` stores it."""
    measured_here = {m.name for m in PER_LAYER if res.workload in m.on}
    return {
        "workload": res.workload,
        "seed": res.seed,
        "seconds": seconds,
        "trace": res.trace,
        "fingerprint": host.fingerprint(),
        "correct": res.correct,
        "ops_attempted": res.attempted,
        "ops_failed": res.failed,
        "checks": [vars(c) for c in res.checks],
        "metrics": {
            name: {"value": value, "unit": UNITS[name],
                   "n": res.samples.get(name, 1)}
            for name, value in res.metrics.items()
            if not res.trace or name in measured_here
        },
        "notes": res.notes,
    }


def print_record(rec: dict) -> None:
    fp = rec["fingerprint"]
    mode = "traced" if rec["trace"] else "untraced"
    print(f"== {rec['workload']}  seed {rec['seed']}  {mode} ==")
    print(f"  host: {fp['cpu_model']}, {fp['schedulable_cores']} cores, "
          f"numpy {fp['numpy']} / {fp['blas']}, backend {fp['backend']} "
          f"{fp['dtype']}, threads {fp['thread_env']}, "
          f"commit {fp['git_commit'][:12]}")
    notes = rec["notes"]
    if not rec["trace"]:
        wall = ", ".join(f"{k} {v:.4g}" for k, v in notes["wall_clock"].items())
        print(f"  host speed {notes['host_speed']:.2f} of nominal; times below "
              f"are corrected for it (wall-clock {wall})")
    for name, m in rec["metrics"].items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']:8s} (n={m['n']})")
    for c in rec["checks"]:
        print(f"  check {c['name']}: {'ok' if c['ok'] else 'FAILED'}"
              f"{'  ' + c['detail'] if c['detail'] else ''}")
    print(f"  ops_attempted {rec['ops_attempted']}  "
          f"ops_failed {rec['ops_failed']}")


def append_json(path: str, recs: list) -> None:
    runs = []
    if os.path.exists(path):
        with open(path) as f:
            runs = json.load(f)["runs"]
    with open(path, "w") as f:
        json.dump({"runs": runs + recs}, f, indent=1)


def run_one(args) -> int:
    res = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    rec = record(res, args.seconds)
    print_record(rec)
    if args.json:
        append_json(args.json, [rec])
    # the driver's line: exactly these keys, every metric of the mode
    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in res.metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, never two at once."""
    os.makedirs(OUT_DIR, exist_ok=True)
    recs = []
    modes = [0, 1] if args.trace else [0]
    for name in NAMES:
        for trace in modes:
            with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
                out = os.path.join(tmp, "record.json")
                proc = subprocess.run([
                    sys.executable, os.path.abspath(__file__),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--json", out,
                ], stdout=subprocess.PIPE, text=True)
                # the child's report, minus the driver's line
                print(proc.stdout.rsplit("\n", 2)[0] if proc.returncode == 0
                      else proc.stdout)
                if proc.returncode != 0:
                    print(f"perfbench: {name} exited with "
                          f"{proc.returncode}", file=sys.stderr)
                    return proc.returncode
                with open(out) as f:
                    recs.extend(json.load(f)["runs"])
    if args.json:
        append_json(args.json, recs)
    bad = [r["workload"] for r in recs if not r["correct"]]
    print(f"{len(recs)} runs, "
          + (f"incorrect: {bad}" if bad else "all checks passed, 0 ops failed"))
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help="how long one run measures")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--json", help="append the full records to this file")
    args = ap.parse_args(argv)
    # a terminated run leaves through the same door as any other
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return run_one(args) if args.workload else run_all(args)
    finally:
        # no process of ours may outlive the run, however it ends
        host.stop_children()


if __name__ == "__main__":
    sys.exit(main())
