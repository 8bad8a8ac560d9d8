"""Host facts: fingerprint, schedulable cores, peak memory, and the two
hardware references the kernel numbers are held against (STREAM-triad
bandwidth and dense GEMM rate), measured in the same run."""

from __future__ import annotations

import glob
import os
import resource
import time

import numpy as np

from perfbench import THREAD_VARS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def schedulable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def require_cores(n: int, workload: str) -> None:
    """Refuse to run a multi-process workload on too few cores: its
    wall-clock numbers would measure oversubscription."""
    have = schedulable_cores()
    if have < n:
        raise SystemExit(
            f"perfbench: {workload} needs {n} schedulable cores, "
            f"this process may use {have}"
        )


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    """HEAD of the enclosing repository, read from ``.git`` directly
    (the driver's checkout is not a repository: then 'unknown')."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return "unknown"


def fingerprint() -> dict:
    from repro.backend import get_backend

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": _cpu_model(),
        "schedulable_cores": schedulable_cores(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "backend": get_backend().name,
        "dtype": "float64",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def die_with_parent() -> None:
    """Ask the kernel to kill the calling process when its parent ends.
    ``stop_children`` covers every path out that Python sees; a
    benchmark that is SIGKILLed runs none of it, and a ``--watch``
    server or a pool worker blocked on its pipe would stay for ever."""
    import ctypes
    import signal

    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def _bind_rank(comm, payload) -> None:
    """Rank program of :func:`bind_pool`.  A forked worker also inherits
    ``run.py``'s SIGTERM handler, which would turn ``terminate()`` into
    an exception that the worker loop reports and survives."""
    import signal

    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    die_with_parent()


def bind_pool(world) -> None:
    """Make every worker of a ``ProcWorld`` die with this process (the
    flag is per process and lost on fork, so each worker sets its own)."""
    world.run_spmd(_bind_rank, [None] * world.nranks)


def _children() -> list:
    """Pids whose parent is this process, read from ``/proc``."""
    me, found = os.getpid(), []
    for path in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(path) as f:
                # "pid (comm) state ppid ..."; comm may hold spaces
                fields = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            found.append(int(path.split("/")[2]))
    return found


def stop_children(grace_s: float = 10.0) -> None:
    """Stop every process this one started and wait until each has
    ended; ``run.py`` calls it on every path out.

    ``ProcWorld`` starts multiprocessing's resource tracker, a helper
    process that by design ends only *after* its parent has gone, so it
    is still there when the benchmark's caller looks.  It is stopped
    here by closing its pipe and waited for; any worker or server a
    failed run left behind is terminated first (the tracker ends only
    once the last holder of its pipe has).
    """
    import multiprocessing
    import signal
    from multiprocessing import resource_tracker

    for p in multiprocessing.active_children():
        p.terminate()
        p.join(grace_s)
        if p.is_alive():
            p.kill()
            p.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    tracker_pid = getattr(tracker, "_pid", None)
    for pid in _children():
        if pid != tracker_pid:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
    if hasattr(tracker, "_stop"):
        tracker._stop()  # closes the pipe, waits for the process
    deadline = time.monotonic() + grace_s
    for pid in _children():
        try:
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                time.sleep(0.01)
        except (ChildProcessError, ProcessLookupError):
            pass  # reaped elsewhere in the meantime


def peak_rss_mb() -> float:
    """High-water RSS of this process plus that of its largest child
    that has ended (so call it after pools and servers are stopped)."""
    own = 0
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                own = int(line.split()[1])  # kB
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # kB
    return (own + child) / 1024.0


def llc_bytes() -> int:
    """Largest cache the kernel reports for cpu0 (0 when unknown)."""
    best = 0
    for path in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*/size"):
        try:
            with open(path) as f:
                txt = f.read().strip()
        except OSError:
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(txt[-1], 1)
        best = max(best, int(txt.rstrip("KMG")) * mult)
    return best


#: Each triad array.  The guide's rule is 4x the last-level cache; the
#: L3 this VM reports (260 MB) is the whole socket's, shared with other
#: tenants, and 1 GB arrays cost 30-70 s of first-touch page faults
#: here.  128 MB (64x the private L2) reads the same bandwidth as 1 GB
#: to within 2 % on this host (16.4 vs 16.1 GB/s); both sizes are
#: printed with the result.
TRIAD_BYTES = 128 << 20


def triad(repeats: int = 5) -> dict:
    """STREAM triad ``a = b + s*c``; best of ``repeats`` as GB/s."""
    n = TRIAD_BYTES // 8
    b = np.full(n, 1.0)
    c = np.full(n, 2.0)
    a = np.empty(n)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        best = min(best, time.perf_counter() - t0)
    # numpy needs two sweeps (scale, then add): 5 array transfers
    return {
        "gbps": 5 * n * 8 / best / 1e9,
        "array_bytes": int(n * 8),
        "llc_bytes": llc_bytes(),
    }


def gemm(n: int = 1024, repeats: int = 5) -> dict:
    """Single-thread dense ``(n, n) @ (n, n)`` rate, best of repeats."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    out = np.empty((n, n))
    np.matmul(a, b, out=out)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.matmul(a, b, out=out)
        best = min(best, time.perf_counter() - t0)
    return {"gflops": 2 * n**3 / best / 1e9, "n": n}


class SpeedProbe:
    """A fixed piece of numpy work, timed next to every pass, that says
    how fast this host is running *right now*.

    Single-thread speed on the reference host drifts by 10-40 % over
    seconds to minutes (other tenants; a 12-minute series of identical
    passes read 1.8-4.3 s), which is more than any bound.  The probe
    shares nothing with the program under test - a gather, a
    tall-skinny GEMM, a scatter-add and vector updates on arrays the
    size of ``basin_forward``'s, plus an interpreter loop - so a change
    to the repo cannot move it.  Dividing a pass by the probe samples
    taken just before and after it halves the run-to-run spread (see
    README, Repeatability).
    """

    #: what one sample takes on the quiet reference host; corrected
    #: times are wall seconds x NOMINAL_S / (adjacent samples)
    NOMINAL_S = 0.15

    def __init__(self):
        rng = np.random.default_rng(0)
        nelem, nnode = 20000, 23000
        conn = rng.integers(0, nnode, (nelem, 8))
        self.dof = (conn[:, :, None] * 3 + np.arange(3)).reshape(nelem, 24)
        self.K = rng.standard_normal((24, 48))
        self.u = rng.standard_normal(3 * nnode)
        self.a = rng.standard_normal(3 * nnode)
        self.b = rng.standard_normal(3 * nnode)
        self.c = np.empty(3 * nnode)
        self.U = np.empty((nelem, 24))
        self.Y = np.empty((nelem, 48))
        self.sample()  # first touch of the buffers

    def sample(self) -> float:
        t0 = time.perf_counter()
        flat = self.dof.ravel()
        for _ in range(30):
            np.take(self.u, self.dof, out=self.U)
            np.matmul(self.U, self.K, out=self.Y)
            ku = np.bincount(flat, weights=self.Y[:, :24].ravel(),
                             minlength=len(self.u))
            np.multiply(self.a, 2.0, out=self.c)
            np.subtract(self.c, self.b, out=self.c)
            np.add(self.c, ku, out=self.c)
        k = 0
        for i in range(200_000):
            k += i
        return time.perf_counter() - t0
