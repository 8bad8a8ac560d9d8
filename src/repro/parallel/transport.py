"""Real shared-memory SPMD transport for the distributed solver.

:class:`ProcWorld` runs ``P`` **persistent worker processes** (spawned
once, reused across programs) connected by double-buffered
shared-memory channels, so :class:`repro.parallel.simcomm.SimComm` —
the same mpi4py-style handle the in-process simulator hands out — is
backed by real cores and real wall time:

* **channels**: one per ordered rank pair, a 2-slot ring in anonymous
  shared memory (``multiprocessing.RawArray``) guarded by a pair of
  semaphores.  A send copies the payload into a free slot and returns
  immediately; with the solvers' bulk-synchronous schedules at most two
  messages are ever in flight per channel, so sends never block — which
  is exactly what lets the interior matvec overlap the ghost exchange.
  Every payload carries a CRC32, verified on receive, so in-flight
  corruption surfaces as a structured :class:`TransportCorruption`
  instead of silent garbage;
* **programs**: any picklable ``fn(comm, payload) -> result`` submitted
  with :meth:`ProcWorld.run_spmd` — the same entry, and the same
  program objects, :class:`~repro.parallel.simcomm.SimWorld` executes
  in-process; each worker executes it SPMD-style against its own
  rank's endpoint (running a generator program straight through its
  suspension points) and ships the (small) result back over a pipe.  Bulk state moves through named
  :mod:`multiprocessing.shared_memory` blocks instead (see
  :func:`create_shared_array` / :func:`attach_shared_array`);
* **accounting**: every worker counts messages/bytes/flops in its own
  :class:`TrafficStats`; ``run_spmd`` merges the counts into the
  master-side ``world.stats``, so the machine model and the transport
  equivalence tests see exactly the numbers the simulator produces;
* **failure detection**: all channel waits and the result gather are
  bounded.  Workers piggyback heartbeats on the result pipe
  (:meth:`SimComm.heartbeat`, rate-limited); the master's gather polls
  the pipes and worker liveness, so a rank that dies (pipe EOF /
  ``is_alive`` false) or goes silent past ``hang_timeout`` raises
  :class:`WorkerFailure` naming the ranks — the distributed solver's
  recovery loop then tears the pool down (:meth:`ProcWorld.respawn`)
  and rewinds to the last collective checkpoint.

Teardown is guaranteed: worlds are registered with ``atexit`` and
carry finalizers, named shared-memory segments are tracked in a
module registry and unlinked on interpreter exit even when an
exception skips the owner's ``finally`` — no leaked ``/dev/shm``
segments after a crashed run (tested).

The channel capacity bounds one message; the default fits the interface
blocks of meshes up to a few hundred thousand elements — pass a larger
``slot_bytes`` for bigger partitions (the solver raises a sizing error
rather than deadlocking).
"""

from __future__ import annotations

import atexit
import inspect
import multiprocessing as mp
import os
import time
import traceback
import weakref
import zlib
from multiprocessing import connection as mp_connection
from multiprocessing import shared_memory

import numpy as np

from repro.backend.blas_threads import single_thread_blas
from repro.parallel.simcomm import SimComm, TrafficStats
from repro.telemetry import spans

_HDR = 6  # per-slot header int64s: tag, ndim, shape[0..2], crc32


class TransportCorruption(RuntimeError):
    """A channel payload failed its CRC32 check on receive."""


class WorkerFailure(RuntimeError):
    """One or more SPMD ranks failed.

    ``ranks`` lists the failed ranks; ``fatal`` is True when the worker
    pool itself is broken (dead or hung processes — the channels may
    hold inconsistent semaphore state) and must be respawned before the
    next program.  Program-level exceptions (``fatal=False``) leave the
    pool reusable.
    """

    def __init__(self, detail: str, *, ranks=(), fatal: bool = False):
        super().__init__(detail)
        self.ranks = list(ranks)
        self.fatal = fatal


class _Channel:
    """One-directional double-buffered message slot pair in shared
    memory.  Exactly one process sends and one receives; each side
    keeps its own slot cursor, and strict FIFO alternation keeps the
    cursors consistent without any shared index."""

    def __init__(self, ctx, slot_bytes: int, timeout: float):
        if slot_bytes % 8:
            raise ValueError("slot_bytes must be a multiple of 8")
        self.slot_bytes = int(slot_bytes)
        self.timeout = float(timeout)
        self._hdr = ctx.RawArray("q", 2 * _HDR)
        self._buf = ctx.RawArray("b", 2 * self.slot_bytes)
        self._free = ctx.Semaphore(2)
        self._avail = ctx.Semaphore(0)
        # process-local cursors (the object is copied into each side)
        self._w = 0
        self._r = 0

    def send(self, data: np.ndarray, tag: int, *,
             corrupt: bool = False) -> int:
        """Copy ``data`` into the next free slot; returns payload
        bytes.  Blocks only when two messages are already in flight.
        ``corrupt=True`` (fault injection only) flips a payload byte
        *after* the CRC is computed, so the receiver's check fires."""
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.ndim > 3:
            raise ValueError("channel messages are at most 3-D")
        if data.nbytes > self.slot_bytes:
            raise ValueError(
                f"message of {data.nbytes} bytes exceeds the channel "
                f"capacity of {self.slot_bytes}; build the ProcWorld "
                "with a larger slot_bytes"
            )
        if not self._free.acquire(timeout=self.timeout):
            raise RuntimeError(
                f"send timed out after {self.timeout}s (receiver not "
                "draining — deadlocked or dead peer?)"
            )
        base = self._w * _HDR
        self._hdr[base] = tag
        self._hdr[base + 1] = data.ndim
        for i in range(3):
            self._hdr[base + 2 + i] = (
                data.shape[i] if i < data.ndim else 1
            )
        dst = np.frombuffer(
            self._buf,
            dtype=np.float64,
            count=data.size,
            offset=self._w * self.slot_bytes,
        )
        dst[:] = data.reshape(-1)
        self._hdr[base + 5] = zlib.crc32(dst) & 0xFFFFFFFF
        if corrupt and data.size:
            dst.view(np.uint8)[0] ^= 0xFF
        self._avail.release()
        self._w ^= 1
        return data.nbytes

    def recv(self, tag: int, out: np.ndarray | None = None) -> np.ndarray:
        """Next message (FIFO); verified against the expected ``tag``
        and its CRC32; written into ``out`` when given."""
        if not self._avail.acquire(timeout=self.timeout):
            raise RuntimeError(
                f"recv timed out after {self.timeout}s (no message — "
                "deadlocked or dead peer?)"
            )
        base = self._r * _HDR
        got_tag = int(self._hdr[base])
        ndim = int(self._hdr[base + 1])
        shape = tuple(int(self._hdr[base + 2 + i]) for i in range(ndim))
        n = int(np.prod(shape)) if ndim else 1
        src = np.frombuffer(
            self._buf,
            dtype=np.float64,
            count=n,
            offset=self._r * self.slot_bytes,
        )
        if got_tag != tag:
            raise RuntimeError(
                f"message tag mismatch: expected {tag}, got {got_tag}"
            )
        want = int(self._hdr[base + 5]) & 0xFFFFFFFF
        got = zlib.crc32(src) & 0xFFFFFFFF
        if got != want:
            raise TransportCorruption(
                f"payload CRC mismatch on tag {tag}: expected "
                f"{want:#010x}, got {got:#010x}"
            )
        if out is not None:
            np.copyto(out.reshape(-1), src)
            result = out
        else:
            result = src.reshape(shape).copy()
        self._free.release()
        self._r ^= 1
        return result


class ProcTransport:
    """Worker-side transport endpoint: implements the ``SimComm``
    world protocol for exactly one rank, against shared-memory
    channels.  Also carries the worker's heartbeat (piggybacked on the
    result pipe, rate-limited) and any bound fault-injection plan."""

    def __init__(self, rank, nranks, send_chs, recv_chs,
                 conn=None, heartbeat_interval: float = 0.5):
        self.rank = int(rank)
        self.nranks = int(nranks)
        self._send_chs = send_chs  # dest rank -> _Channel
        self._recv_chs = recv_chs  # source rank -> _Channel
        self._stats = TrafficStats()
        self._conn = conn
        self._hb_interval = float(heartbeat_interval)
        self._hb_last = 0.0
        #: fault-injection context, bound per program by the rank
        #: program (see repro.resilience.faults.FaultPlan)
        self.fault_plan = None
        self.fault_step = -1

    def _check(self, rank: int) -> None:
        if rank != self.rank:
            raise ValueError(
                f"process transport endpoint is rank {self.rank}, "
                f"not {rank}"
            )

    def _send_from(self, rank, data, dest, tag) -> None:
        self._check(rank)
        corrupt = False
        if self.fault_plan is not None:
            action = self.fault_plan.send_action(
                self.rank, self.fault_step, dest
            )
            if action == "drop":
                return  # swallowed: the peer's recv will time out
            corrupt = action == "corrupt"
        nbytes = self._send_chs[dest].send(data, tag, corrupt=corrupt)
        self._stats.record_send(self.rank, dest, nbytes)

    def _recv_at(self, rank, source, tag, out=None) -> np.ndarray:
        self._check(rank)
        return self._recv_chs[source].recv(tag, out)

    def _add_flops(self, rank, n) -> None:
        self._check(rank)
        self._stats.flops += int(n)

    def _heartbeat(self, rank, step) -> None:
        """Rate-limited liveness ping to the master over the result
        pipe (at most one every ``heartbeat_interval`` seconds — the
        per-step cost is one clock read)."""
        self._check(rank)
        if self._conn is None:
            return
        now = time.perf_counter()
        if now - self._hb_last >= self._hb_interval:
            self._hb_last = now
            try:
                self._conn.send(("hb", int(step)))
            except (BrokenPipeError, OSError):
                pass

    def rank_stats(self, rank) -> TrafficStats:
        self._check(rank)
        return self._stats


def _worker_main(rank, nranks, conn, send_chs, recv_chs,
                 heartbeat_interval):
    """Persistent worker loop: execute submitted programs until told
    to stop, shipping results and traffic counts back over the pipe."""
    single_thread_blas()  # n workers x m BLAS threads oversubscribe
    transport = ProcTransport(
        rank, nranks, send_chs, recv_chs, conn, heartbeat_interval,
    )
    comm = SimComm(transport, rank)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, KeyboardInterrupt):
            return
        if msg[0] == "stop":
            conn.close()
            return
        # ("run", program, payload, trace_id or None)
        _, program, payload, trace_ctx = msg
        prev_trace = spans.set_trace_context(trace_ctx)
        try:
            result = program(comm, payload)
            if inspect.isgenerator(result):
                # the per-exchange suspension points only matter to the
                # in-process scheduler: here the blocking channel
                # receives already synchronise the ranks
                try:
                    while True:
                        next(result)
                except StopIteration as stop:
                    result = stop.value
            conn.send(
                (
                    "ok",
                    result,
                    transport._stats.as_tuple(),
                    transport._stats.peers_payload(),
                )
            )
            transport._stats = TrafficStats()
        except BaseException:
            transport._stats = TrafficStats()
            transport.fault_plan = None
            try:
                conn.send(("err", traceback.format_exc()))
            except Exception:
                return
        finally:
            spans.set_trace_context(prev_trace)


#: live worlds, closed at interpreter exit even when the owner's
#: ``close``/``finally`` never ran (crash paths)
_LIVE_WORLDS: "weakref.WeakSet" = weakref.WeakSet()


def _close_live_worlds() -> None:  # pragma: no cover - exit hook
    for world in list(_LIVE_WORLDS):
        try:
            world.close(force=True)
        except Exception:
            pass


atexit.register(_close_live_worlds)


class ProcWorld:
    """Persistent multiprocessing SPMD executor.

    Mirrors the master-side surface of
    :class:`~repro.parallel.simcomm.SimWorld` that the solver uses
    (``nranks``, ``stats``, ``total_stats``, ``slot_bytes``,
    :meth:`run_spmd`), executing the rank programs on real cores.
    Workers are daemonic: they die with the master even if
    :meth:`close` is never reached.

    Failure handling: ``hang_timeout`` (seconds, None = disabled)
    bounds how long a rank may go without any pipe activity
    (result/error/heartbeat) before the gather declares it hung; dead
    workers are detected within one poll tick either way.  Both paths
    tear the pool down and raise :class:`WorkerFailure` with
    ``fatal=True`` — call :meth:`respawn` before reuse.
    """

    def __init__(
        self,
        nranks: int,
        *,
        slot_bytes: int = 1 << 18,
        timeout: float = 120.0,
        start_method: str | None = None,
        hang_timeout: float | None = None,
        heartbeat_interval: float = 0.5,
        poll_tick: float = 0.05,
    ):
        if nranks < 1:
            raise ValueError("need at least one rank")
        self.nranks = int(nranks)
        self.slot_bytes = int(slot_bytes)
        self.timeout = float(timeout)
        self.hang_timeout = hang_timeout
        self.heartbeat_interval = float(heartbeat_interval)
        self.poll_tick = float(poll_tick)
        self.stats = [TrafficStats() for _ in range(nranks)]
        #: recovery accounting: pool respawns over this world's lifetime
        self.respawns = 0
        # start the resource tracker *before* forking workers so every
        # worker shares it: attach-time registrations then deduplicate
        # against the creator's and the creator's unlink retires the
        # segment exactly once (a tracker forked mid-lifetime would
        # double-unlink shared arrays and warn at exit)
        try:  # pragma: no cover - stdlib-internal but stable API
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:
            pass
        self._ctx = mp.get_context(start_method)
        self._spawn()
        _LIVE_WORLDS.add(self)

    def _spawn(self) -> None:
        """Build fresh channels, pipes, and worker processes
        (initial start and every :meth:`respawn`)."""
        nranks = self.nranks
        ctx = self._ctx
        self._channels = {
            (i, j): _Channel(ctx, self.slot_bytes, self.timeout)
            for i in range(nranks)
            for j in range(nranks)
            if i != j
        }
        self._pipes = []
        self._procs = []
        for r in range(nranks):
            parent, child = ctx.Pipe()
            send_chs = {
                j: ch for (i, j), ch in self._channels.items() if i == r
            }
            recv_chs = {
                i: ch for (i, j), ch in self._channels.items() if j == r
            }
            p = ctx.Process(
                target=_worker_main,
                args=(r, nranks, child, send_chs, recv_chs,
                      self.heartbeat_interval),
                daemon=True,
            )
            p.start()
            child.close()
            self._pipes.append(parent)
            self._procs.append(p)
        self._closed = False

    # ------------------------------------------------------- execution

    def run_spmd(self, program, payloads: list,
                 trace_context: str | None = None) -> list:
        """Run ``program(comm, payload)`` on every rank concurrently;
        returns the per-rank results.  Worker traffic counts are merged
        into ``self.stats``.

        ``trace_context`` piggybacks the master's request trace id on
        the run message; workers set it as their ambient trace
        context for the program's duration so per-rank timelines and
        any worker-side spans stitch into the request's trace.

        Failures raise :class:`WorkerFailure`: program-level exceptions
        carry the failing ranks' tracebacks (``fatal=False``, pool
        still usable); dead or hung workers tear the whole pool down
        first (``fatal=True`` — :meth:`respawn` before the next
        program).
        """
        if self._closed:
            raise RuntimeError("world is closed")
        if len(payloads) != self.nranks:
            raise ValueError("one payload per rank required")
        if trace_context is None:
            trace_context = spans.get_trace_context()
        for r, pipe in enumerate(self._pipes):
            pipe.send(("run", program, payloads[r], trace_context))
        results = [None] * self.nranks
        errors = []
        pending = set(range(self.nranks))
        now = time.perf_counter()
        last_seen = {r: now for r in pending}
        dead: dict[int, str] = {}
        while pending:
            by_pipe = {self._pipes[r]: r for r in pending}
            try:
                ready = mp_connection.wait(
                    list(by_pipe), timeout=self.poll_tick
                )
            except OSError:
                ready = []
            for pipe in ready:
                r = by_pipe[pipe]
                try:
                    msg = pipe.recv()
                except (EOFError, OSError):
                    # reap briefly so the report can name the exit code
                    # (e.g. 173 for an injected kill)
                    self._procs[r].join(timeout=0.5)
                    code = self._procs[r].exitcode
                    dead[r] = (
                        f"worker died (exit code {code})"
                        if code is not None
                        else "worker died (pipe closed)"
                    )
                    pending.discard(r)
                    continue
                last_seen[r] = time.perf_counter()
                if msg[0] == "hb":
                    continue
                pending.discard(r)
                if msg[0] == "ok":
                    results[r] = msg[1]
                    st = self.stats[r]
                    m, b, f = msg[2]
                    st.messages_sent += m
                    st.bytes_sent += b
                    st.flops += f
                    st.merge_peers_payload(msg[3])
                else:
                    errors.append((r, msg[1]))
            now = time.perf_counter()
            for r in list(pending):
                if not self._procs[r].is_alive():
                    code = self._procs[r].exitcode
                    dead[r] = f"worker died (exit code {code})"
                    pending.discard(r)
                elif (
                    self.hang_timeout is not None
                    and now - last_seen[r] > self.hang_timeout
                ):
                    dead[r] = (
                        f"worker hung (no pipe activity for "
                        f"{self.hang_timeout}s)"
                    )
                    pending.discard(r)
            if dead:
                # the pool is broken: peers of a dead rank are blocked
                # in channel waits — tear everything down now instead
                # of letting each of them ride out its own timeout
                self.close(force=True)
                detail = "\n".join(
                    f"-- rank {r} --\n{why}" for r, why in sorted(dead.items())
                )
                if errors:
                    detail += "\n" + "\n".join(
                        f"-- rank {r} --\n{tb}" for r, tb in errors
                    )
                raise WorkerFailure(
                    f"{len(dead)} rank(s) failed in SPMD program "
                    f"(pool torn down, respawn before reuse):\n{detail}",
                    ranks=sorted(set(dead) | {r for r, _ in errors}),
                    fatal=True,
                )
        if errors:
            detail = "\n".join(f"-- rank {r} --\n{tb}" for r, tb in errors)
            raise WorkerFailure(
                f"{len(errors)} rank(s) failed in SPMD program:\n{detail}",
                ranks=[r for r, _ in errors],
                fatal=False,
            )
        return results

    def total_stats(self) -> TrafficStats:
        out = TrafficStats()
        for s in self.stats:
            out.merge(s)
        return out

    def rank_stats(self, rank: int) -> TrafficStats:
        return self.stats[rank]

    # --------------------------------------------------------- lifetime

    def respawn(self) -> None:
        """Tear down the worker pool (terminating stuck processes) and
        start a fresh one — fresh channels too, since a killed worker
        can leave the old semaphores unbalanced.  Traffic stats and the
        master-side world object survive; in-flight program state does
        not (that is what checkpoints are for)."""
        self.close(force=True)
        self._spawn()
        self.respawns += 1

    def close(self, force: bool = False) -> None:
        """Stop the workers; idempotent.  ``force`` terminates without
        the cooperative stop handshake (used on broken pools, where
        workers may be blocked in channel waits)."""
        if self._closed:
            return
        self._closed = True
        if not force:
            for pipe in self._pipes:
                try:
                    pipe.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        for p in self._procs:
            p.join(timeout=0.2 if force else 5.0)
            if p.is_alive():
                p.terminate()
        for p in self._procs:
            if p.is_alive():
                p.join(timeout=2.0)
        for pipe in self._pipes:
            try:
                pipe.close()
            except OSError:
                pass

    def __enter__(self) -> "ProcWorld":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __del__(self):  # pragma: no cover - best effort
        try:
            self.close(force=True)
        except Exception:
            pass


# ----------------------------------------------- shared bulk state

#: master-side registry of created-but-not-yet-unlinked segments; the
#: exit hook retires anything a crash path left behind, so a failed
#: ``run_spmd``/gather cannot leak ``/dev/shm`` segments
_SHM_REGISTRY: dict[str, shared_memory.SharedMemory] = {}


def _cleanup_shared_segments() -> None:  # pragma: no cover - exit hook
    for name, shm in list(_SHM_REGISTRY.items()):
        _SHM_REGISTRY.pop(name, None)
        try:
            shm.close()
        except Exception:
            pass
        try:
            shm.unlink()
        except Exception:
            pass


atexit.register(_cleanup_shared_segments)


def create_shared_array(shape, dtype=np.float64):
    """Create a named shared-memory array; returns ``(shm, view)``.
    The caller owns the block: release it with
    :func:`release_shared_array` (or close **and unlink** it manually —
    and drop the view first, an exported buffer cannot be closed).
    Segments still registered at interpreter exit are unlinked by the
    module's ``atexit`` hook, so exception paths cannot leak them."""
    size = int(np.prod(shape)) * np.dtype(dtype).itemsize
    shm = shared_memory.SharedMemory(create=True, size=max(size, 1))
    _SHM_REGISTRY[shm.name] = shm
    view = np.frombuffer(shm.buf, dtype=dtype)[: int(np.prod(shape))]
    return shm, view.reshape(shape)


def release_shared_array(shm) -> None:
    """Close and unlink a segment from :func:`create_shared_array`
    (idempotent; drop any exported views first)."""
    _SHM_REGISTRY.pop(shm.name, None)
    try:
        shm.close()
    except Exception:
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


def attach_shared_array(name, shape, dtype=np.float64):
    """Attach to a named shared-memory array from a worker; returns
    ``(shm, view)``.

    Under the fork start method (the ProcWorld default on Linux) the
    workers share the parent's resource-tracker process, whose cache
    holds one entry per segment name — the worker's attach re-register
    deduplicates against the creator's, and the creator's ``unlink``
    retires it exactly once.  (Unregistering here instead would strip
    the creator's entry and make its unlink warn.)"""
    shm = shared_memory.SharedMemory(name=name)
    view = np.frombuffer(shm.buf, dtype=dtype)[: int(np.prod(shape))]
    return shm, view.reshape(shape)


# ------------------------------------------- transport measurement


def _pingpong_program(comm, payload):
    """Ranks 0 and 1 bounce one fixed-size message back and forth;
    returns, on rank 0, ``[(bytes, median round-trip seconds)]`` per
    size.  The median over ``repeats`` round trips rejects scheduler
    outliers."""
    sizes, repeats = payload
    if comm.rank > 1 or comm.size < 2:
        return None
    samples = []
    for nbytes in sizes:
        arr = np.zeros(max(nbytes // 8, 1))
        if comm.rank == 0:
            rounds = []
            for it in range(repeats + 1):
                t0 = time.perf_counter()
                comm.Send(arr, 1, tag=99)
                comm.Recv(1, tag=99)
                if it > 0:  # round 0 warms the channel both ways
                    rounds.append(time.perf_counter() - t0)
            samples.append((int(arr.nbytes), float(np.median(rounds))))
        else:
            for _ in range(repeats + 1):
                comm.Recv(0, tag=99)
                comm.Send(arr, 0, tag=99)
    return samples


def fit_alpha_beta(samples) -> tuple[float, float]:
    """Least-squares fit of the one-way time ``t(n) = alpha + n / beta``
    to ``[(bytes, round_trip_seconds)]`` ping-pong samples (a round
    trip is two transfers).  Returns ``(alpha, beta)``, each clamped
    positive: timer noise on a fast transport can put the fitted
    intercept or slope below zero."""
    ns = np.array([s[0] for s in samples], dtype=float)
    ts = 0.5 * np.array([s[1] for s in samples], dtype=float)
    A = np.stack([np.ones_like(ns), ns], axis=1)
    (alpha, slope), *_ = np.linalg.lstsq(A, ts, rcond=None)
    return float(max(alpha, 1e-9)), float(1.0 / max(slope, 1e-15))


def measure_transport(
    world: ProcWorld,
    *,
    sizes: tuple = (64, 1024, 8192, 65536),
    repeats: int = 30,
) -> dict:
    """Measure the transport's alpha/beta by ping-pong between ranks 0
    and 1: the median round trip per message size, halved, fit by
    :func:`fit_alpha_beta` to ``t(n) = alpha + n / beta`` — the
    per-message cost the one-exchange-per-step machine model charges.

    Returns ``{"alpha": s/message, "beta": bytes/s, "samples":
    [(bytes, round_s)]}`` — the constants
    :func:`repro.parallel.perfmodel.machine_from_measurements` turns
    into a calibrated MachineModel.  Note the ping-pong traffic is
    merged into ``world.stats``; use a scratch world when exact solver
    accounting matters.
    """
    if world.nranks < 2:
        raise ValueError("transport measurement needs at least 2 ranks")
    sizes = tuple(s for s in sizes if s <= world.slot_bytes)
    results = world.run_spmd(
        _pingpong_program, [(sizes, repeats)] * world.nranks
    )
    samples = results[0]
    alpha, beta = fit_alpha_beta(samples)
    return {"alpha": alpha, "beta": beta, "samples": samples}
