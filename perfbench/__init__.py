"""The repo benchmark: six workloads, end-to-end metrics with bounds,
and per-layer metrics timed from outside the program.  See README.md."""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread per process, so two worker processes use the two
    cores and nothing oversubscribes them.  Entry points call this
    before numpy loads; child processes inherit it."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
