"""Pluggable-transport MPI with exact traffic accounting.

:class:`SimComm` is the per-rank communicator handle: buffered
point-to-point ``Send`` / ``Recv`` (numpy-buffer style, mirroring
mpi4py's upper-case API) plus flop accounting and a liveness ping.  The
solvers need nothing else — their one exchange is a set of
point-to-point sends and receives per step.  It is a thin facade over
a **transport** — any object implementing the small world-side
protocol below — so the same SPMD rank program runs unchanged over
either backing:

* :class:`SimWorld` (this module): ``P`` in-process mailboxes moved
  through deques — parallel *semantics* (who sends what to whom each
  step) execute for real, only the clock is modeled;
* :class:`repro.parallel.transport.ProcWorld`: persistent worker
  processes with double-buffered shared-memory channels — real cores,
  real wall time.

Every send is accounted (count + payload bytes) per rank, which the
machine model converts to network time, and which the transport
equivalence tests compare across backings message for message.

Transport protocol (what a world must provide to back a ``SimComm``)::

    nranks                      -> int
    _send_from(rank, data, dest, tag)
    _recv_at(rank, source, tag, out=None) -> np.ndarray
    _add_flops(rank, n)
    rank_stats(rank)            -> TrafficStats
    _heartbeat(rank, step)      (optional: liveness ping, may no-op)

and, on the master side, the one execution entry of both worlds::

    run_spmd(program, payloads) -> per-rank results, in rank order
    slot_bytes                  -> int  (largest message a channel
                                   holds; 0 = unbounded mailboxes)

A rank program is ``program(comm, payload) -> result``.  One that
exchanges messages is written as a **generator** that suspends with a
bare ``yield`` exactly once per exchange: after it has posted all of
that exchange's sends, before its first receive.  On the process
transport the suspension is a no-op (the worker drains the generator;
blocking channel receives synchronise the ranks).  In-process it is the
scheduling point: :meth:`SimWorld.run_spmd` resumes the ranks
round-robin, so when a rank wakes up every peer has already posted the
messages it is about to receive.  A program that exchanges nothing can
stay a plain function.
"""

from __future__ import annotations

import inspect
from collections import defaultdict, deque
from dataclasses import dataclass, field

import numpy as np


@dataclass
class TrafficStats:
    """Per-rank communication and work accounting.

    ``peers`` attributes every accounted send to its ``(src, dst)``
    rank pair as ``(messages, bytes)``; the scalar fields remain the
    authoritative totals (callers still bump them directly for modeled
    traffic that has no peer, e.g. machine-model estimates), and
    :meth:`record_send` keeps both in lockstep.
    """

    messages_sent: int = 0
    bytes_sent: int = 0
    flops: int = 0
    peers: dict = field(default_factory=dict)

    def record_send(self, src: int, dst: int, nbytes: int) -> None:
        """Account one message of ``nbytes`` from ``src`` to ``dst``:
        bumps the scalar totals and the per-pair matrix together."""
        self.messages_sent += 1
        self.bytes_sent += nbytes
        m, b = self.peers.get((src, dst), (0, 0))
        self.peers[(src, dst)] = (m + 1, b + nbytes)

    def copy(self) -> "TrafficStats":
        return TrafficStats(
            self.messages_sent,
            self.bytes_sent,
            self.flops,
            dict(self.peers),
        )

    def merge(self, other: "TrafficStats") -> None:
        self.messages_sent += other.messages_sent
        self.bytes_sent += other.bytes_sent
        self.flops += other.flops
        for pair, (m, b) in other.peers.items():
            pm, pb = self.peers.get(pair, (0, 0))
            self.peers[pair] = (pm + m, pb + b)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.messages_sent, self.bytes_sent, self.flops)

    def peers_payload(self) -> list:
        """Pickle/pipe-friendly form of the peer matrix."""
        return [
            (src, dst, m, b)
            for (src, dst), (m, b) in sorted(self.peers.items())
        ]

    def merge_peers_payload(self, payload) -> None:
        for src, dst, m, b in payload:
            pm, pb = self.peers.get((src, dst), (0, 0))
            self.peers[(src, dst)] = (pm + m, pb + b)


class SimComm:
    """Rank-local communicator handle over a pluggable transport.

    ``world`` is any transport implementing the module-level protocol;
    ``rank`` is this endpoint's rank in it.
    """

    def __init__(self, world, rank: int):
        self.world = world
        self.rank = rank

    @property
    def size(self) -> int:
        return self.world.nranks

    @property
    def stats(self) -> TrafficStats:
        return self.world.rank_stats(self.rank)

    # -------------------------------------------------- point to point

    def Send(self, data: np.ndarray, dest: int, tag: int = 0) -> None:
        """Ship ``data`` to ``dest``; accounted against this rank.
        Completes locally (buffered) — the BSP schedules used here
        post all sends of a superstep before any receive."""
        self.world._send_from(self.rank, data, dest, tag)

    def Recv(
        self, source: int, tag: int = 0, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Next message from ``source``; written into ``out`` when
        given (zero extra copies on the hot path)."""
        return self.world._recv_at(self.rank, source, tag, out)

    def add_flops(self, n: int) -> None:
        self.world._add_flops(self.rank, n)

    def heartbeat(self, step: int) -> None:
        """Liveness ping for long-running rank programs: lets the
        master's failure detector distinguish "slow" from "hung".
        Rate-limited inside the transport (a no-op in-process), so
        calling it every time step is fine."""
        hb = getattr(self.world, "_heartbeat", None)
        if hb is not None:
            hb(self.rank, step)


class SimWorld:
    """A set of ``P`` simulated ranks sharing in-memory mailboxes."""

    #: the mailboxes are unbounded deques: no message is too large
    slot_bytes = 0

    def __init__(self, nranks: int):
        if nranks < 1:
            raise ValueError("need at least one rank")
        self.nranks = nranks
        self._mail: dict[tuple[int, int, int], deque] = defaultdict(deque)
        self.stats = [TrafficStats() for _ in range(nranks)]

    def comm(self, rank: int) -> SimComm:
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} out of range")
        return SimComm(self, rank)

    def total_stats(self) -> TrafficStats:
        out = TrafficStats()
        for s in self.stats:
            out.merge(s)
        return out

    def run_spmd(self, program, payloads: list) -> list:
        """Run ``program(comm, payload)`` for every rank on this one
        thread; returns the per-rank results in rank order.

        Deterministic cooperative round-robin (see the module
        docstring for the suspension contract): every rank runs to its
        next ``yield`` in rank order, again and again, until all have
        returned.  A receive whose message was never sent therefore
        raises (:meth:`_recv_at`) instead of hanging, and a rank's
        exception propagates with its own type.  A failed run leaves
        no state behind — the suspended ranks are closed and the
        mailboxes cleared, so the peers' already-posted messages cannot
        leak into the next program — and a run that completes with a
        message still queued is a schedule bug and raises.
        """
        if len(payloads) != self.nranks:
            raise ValueError("one payload per rank required")
        results = [None] * self.nranks
        live = {}
        try:
            for r, payload in enumerate(payloads):
                out = program(self.comm(r), payload)
                if inspect.isgenerator(out):
                    live[r] = out
                else:
                    results[r] = out
            while live:
                for r, gen in list(live.items()):
                    try:
                        next(gen)
                    except StopIteration as stop:
                        results[r] = stop.value
                        del live[r]
        except BaseException:
            for gen in live.values():
                gen.close()
            self._mail.clear()
            raise
        left = {k: len(v) for k, v in self._mail.items() if v}
        if left:
            self._mail.clear()
            raise RuntimeError(
                "SPMD program finished with undelivered messages "
                f"(src, dst, tag) -> count: {left}"
            )
        return results

    # ------------------------------------------------ transport protocol

    def _send_from(
        self, rank: int, data: np.ndarray, dest: int, tag: int
    ) -> None:
        data = np.asarray(data)
        self._mail[(rank, dest, tag)].append(data.copy())
        self.stats[rank].record_send(rank, dest, data.nbytes)

    def _recv_at(
        self, rank: int, source: int, tag: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        box = self._mail[(source, rank, tag)]
        if not box:
            raise RuntimeError(
                f"rank {rank}: no message from {source} tag {tag}"
            )
        got = box.popleft()
        if out is not None:
            np.copyto(out, got)
            return out
        return got

    def _add_flops(self, rank: int, n: int) -> None:
        self.stats[rank].flops += int(n)

    def rank_stats(self, rank: int) -> TrafficStats:
        return self.stats[rank]

