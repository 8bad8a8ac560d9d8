#!/usr/bin/env python3
"""Write the seed-0 reference outputs, ``perfbench/reference/<workload>.npz``.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Each file holds what one pass of the workload produces on seed 0, cut
down to receiver traces, sampled field values and scalars.  Run it only
when a change is *meant* to alter the numbers; ``run.py --seed 0`` then
compares every run with these at relative L2 <= 1e-6.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

import perfbench  # noqa: E402

perfbench.pin_blas_threads()  # before numpy loads

import numpy as np  # noqa: E402

from perfbench import host  # noqa: E402
from perfbench.harness import REF_DIR, reference_path, reference_view  # noqa: E402
from perfbench.metrics import RUN_SECONDS, WORKLOADS  # noqa: E402


def reference_outputs(name: str) -> dict:
    if name == "serve_open":
        # what every served .npz must equal: the in-process solves
        from perfbench.workloads import serve_open

        inputs = serve_open.make_inputs(0, RUN_SECONDS)
        return serve_open.expected_outputs(inputs)[0]
    from perfbench.workloads import closed_loop

    wl = closed_loop(name)
    state = wl.setup(wl.inputs(0))
    try:
        return reference_view(wl, state, wl.run_pass(state))
    finally:
        wl.teardown(state)


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or [
        w["name"] for w in WORKLOADS
    ]
    os.makedirs(REF_DIR, exist_ok=True)
    try:
        for name in names:
            out = reference_outputs(name)
            np.savez_compressed(reference_path(name), **out)
            size = os.path.getsize(reference_path(name))
            print(f"{name}: {sorted(out)} -> {reference_path(name)} "
                  f"({size / 1e3:.1f} kB)")
    finally:
        host.stop_children()  # dist_2rank's workers and their tracker
    return 0


if __name__ == "__main__":
    sys.exit(main())
