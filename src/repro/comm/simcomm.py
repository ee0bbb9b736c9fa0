"""SPMD communicator simulated in-process.

:class:`SimCommunicator` represents a communicator of ``size`` ranks.
Because all ranks live in one Python process, collectives take a list of
per-rank arrays (index = rank) and return per-rank results, mirroring
the upper-case buffer API of mpi4py / the NCCL collectives the hipified
FFTMatvec calls.

Numerics are faithful (tree reduction order, computation in the caller's
dtype); time is charged to an optional shared :class:`SimClock` using the
tree cost model.  Subcommunicators (grid rows/columns) carry a ``span``
describing their placement in the world so the hierarchical network
model can tell a contiguous row from a machine-spanning column.

Collectives are *payload-shape agnostic*: the blocked multi-RHS grid
path broadcasts and tree-reduces whole ``(Nt, nx, k)`` blocks in one
call, so k right-hand sides pay one latency tree (volume scales by k,
latency does not) and the tree-reduction numerics apply elementwise per
column — the ``eps * log2(p)`` accumulation term simply rides along for
every column of the block.  Per-operation call counters (``op_counts``)
and byte totals (``op_bytes``) let benchmarks assert per-stage batching
without rebuilding the communicator (:meth:`reset_op_counts`).

Time is charged to the shared clock directly (blocking collectives), or
— inside an :meth:`SimCommunicator.on_stream` block — onto a timeline
stream, so an overlapped schedule can prefetch a broadcast on its comm
stream while compute proceeds on another.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator, List, Optional, Sequence

from repro.backend import Backend, NumpyBackend
from repro.comm.collectives import (
    fixed_tree_reduce_segments,
    tree_collective_time,
    tree_reduce_arrays,
)
from repro.comm.netmodel import NetworkModel, SIMPLE_NETWORK
from repro.util import checksum as _ck
from repro.util.dtypes import Precision
from repro.util.timing import SimClock, Stream
from repro.util.validation import ReproError, check_positive_int
from repro.util.workspace import Workspace

__all__ = ["SimCommunicator"]

_NUMPY = NumpyBackend()


class SimCommunicator:
    """A simulated communicator over ``size`` ranks.

    Parameters
    ----------
    size:
        Number of ranks.
    net:
        Network model used for timing (default: flat test network).
    clock:
        Shared simulated clock; collectives advance it by the modeled
        time (all ranks are synchronized — collectives are blocking).
    span:
        Consecutive machine ranks this communicator's members are spread
        over (>= size); a world communicator has span == size, a strided
        grid-column subcommunicator spans nearly the whole machine.
    backend:
        Array backend the collectives stage payloads with (default
        numpy).  Individual collectives accept a per-call ``backend=``
        override for mixed host/device traffic.
    """

    _OPS = ("bcast", "reduce", "allreduce", "allgather", "scatter", "barrier")

    def __init__(
        self,
        size: int,
        net: NetworkModel = SIMPLE_NETWORK,
        clock: Optional[SimClock] = None,
        span: Optional[int] = None,
        name: str = "world",
        backend: Optional[Backend] = None,
    ) -> None:
        self.size = check_positive_int(size, "size")
        self.net = net
        self.clock = clock
        self.span = self.size if span is None else max(span, self.size)
        self.name = name
        self.backend = backend if backend is not None else _NUMPY
        self.stream: Optional[Stream] = None
        self.bytes_communicated = 0.0
        self.collective_calls = 0
        self.op_counts: dict = {op: 0 for op in self._OPS}
        self.op_bytes: dict = {op: 0.0 for op in self._OPS}
        # Optional fault injection (see repro.comm.fault): consulted at
        # the top of every collective; None means no failures ever.
        self.failures = None
        # Optional fail-silent injection + payload verification: a
        # CorruptionSchedule flips bits in transported payloads, and
        # verify_payloads re-checks every received copy against the
        # sender's digest (on automatically whenever a schedule is
        # installed; settable on its own for defense-only runs).
        self.corruption = None
        self.verify_payloads = False

    # -- fault injection -----------------------------------------------------
    def install_failure_schedule(self, schedule) -> None:
        """Attach a :class:`~repro.comm.fault.FailureSchedule` (or None).

        The schedule's collective counter is shared across every
        communicator it is installed on, so one schedule installed on a
        whole grid observes the run's deterministic collective sequence.
        """
        self.failures = schedule

    def install_corruption_schedule(self, schedule) -> None:
        """Attach a :class:`~repro.comm.fault.CorruptionSchedule` (or None).

        Every ``bcast``/``reduce``/``reduce_segments`` then fires one
        schedule event (shared counter across installs, like the failure
        schedule's); a due event flips one bit of the target rank's
        received copy or reduce contribution *in transport*.  Installing
        a schedule also switches :attr:`verify_payloads` on so the
        flipped payload is caught at receive and raised as
        :class:`~repro.comm.fault.SilentCorruption`; disarming with
        ``None`` switches verification back off.
        """
        self.corruption = schedule
        self.verify_payloads = schedule is not None

    def _maybe_fail(self, op: str) -> None:
        """Raise :class:`~repro.comm.fault.RankFailure` if one is due.

        Runs before the collective's numerics or timing: a dead rank
        means the collective never completes, so nothing is charged and
        no counters move for the op that observed the failure.
        """
        if self.failures is not None:
            self.failures.on_collective(op, self.name)

    def _corruption_target(self, op: str):
        """Fire one corruption event; returns (target_rank, event_index)."""
        if self.corruption is None:
            return None, None
        target = self.corruption.on_event(op, self.name)
        if target is None:
            return None, None
        return target % self.size, self.corruption.calls - 1

    # -- stream routing -----------------------------------------------------
    @contextlib.contextmanager
    def on_stream(self, stream: Optional[Stream]) -> Iterator[None]:
        """Charge collectives inside the block onto a timeline stream.

        The collective's numerics still run eagerly (ranks are simulated
        in-process); only the modeled time rides the stream, letting a
        scheduler overlap it against compute.  Phase attribution happens
        at charge time on the stream's shared clock.  ``None`` restores
        direct clock charging.
        """
        prev = self.stream
        self.stream = stream
        try:
            yield
        finally:
            self.stream = prev

    # -- helpers -----------------------------------------------------------
    def _check_per_rank(
        self, arrays: Sequence[Any], what: str, be: Backend
    ) -> List[Any]:
        if len(arrays) != self.size:
            raise ReproError(
                f"{what}: expected {self.size} per-rank arrays, got {len(arrays)}"
            )
        return [be.asarray(a) for a in arrays]

    def _charge(self, k: int, nbytes: float, phase: str, op: str = "") -> float:
        t = tree_collective_time(k, nbytes, self.net, span=self.span)
        if self.stream is not None:
            self.stream.charge(t, phase=phase)
        elif self.clock is not None:
            with self.clock.phase(phase):
                self.clock.advance(t)
        moved = nbytes * max(k - 1, 0)
        self.bytes_communicated += moved
        self.collective_calls += 1
        if op:
            self.op_bytes[op] += moved
        return t

    def reset_op_counts(self) -> None:
        """Zero the traffic counters (call counts, per-op and total bytes).

        Benchmarks asserting per-stage batching can reset between stages
        instead of rebuilding the communicator (which would also reset
        the shared clock wiring).
        """
        self.bytes_communicated = 0.0
        self.collective_calls = 0
        self.op_counts = {op: 0 for op in self._OPS}
        self.op_bytes = {op: 0.0 for op in self._OPS}

    # -- collectives ---------------------------------------------------------
    def bcast(
        self,
        value: Any,
        root: int = 0,
        phase: str = "comm",
        workspace: Optional[Workspace] = None,
        tag: str = "bcast",
        backend: Optional[Backend] = None,
    ) -> List[Any]:
        """Broadcast root's array to all ranks; returns the per-rank buffers.

        Every receiving rank gets its own copy; the root's entry is the
        payload itself (a root does not receive what it sends — callers
        that stage the payload for this call are not charged a second
        pass over it).  With a ``workspace`` the receive buffers are
        persistent arena buffers keyed by ``tag`` and rank — repeated
        broadcasts of the same payload shape (the grid engine's chunk
        loop) reuse them instead of allocating fresh copies per call.
        Callers must have consumed the previous copies for the same tag
        (the usual checkout discipline).
        """
        self._maybe_fail("bcast")
        target, event = self._corruption_target("bcast")
        be = backend if backend is not None else self.backend
        if not (0 <= root < self.size):
            raise ReproError(f"root {root} out of range for size {self.size}")
        buf = be.asarray(value)
        verify = self.verify_payloads or target is not None
        digest = _ck.payload_digest(buf) if verify else None
        self.op_counts["bcast"] += 1
        self._charge(self.size, be.nbytes(buf), phase, op="bcast")
        copies = []
        for rank in range(self.size):
            if rank == root and rank != target:
                copies.append(buf)  # a flip aimed at the root lands on a copy
            elif workspace is None:
                copies.append(be.copy(buf))
            else:
                recv = workspace.buffer(
                    f"{tag}/r{rank}", tuple(buf.shape), be.dtype_of(buf)
                )
                be.copyto(recv, buf)
                copies.append(recv)
        if target is not None:
            # The flip happens "on the wire": the sender's digest is
            # honest, the target rank's received copy is not.
            _ck.flip_bit(
                copies[target],
                self.corruption.element_index(2 * int(be.size(buf))),
                bit=self.corruption.bit,
            )
        if verify:
            for rank, recv in enumerate(copies):
                _ck.verify_payload(
                    recv, digest, op="bcast", phase=phase, rank=rank,
                    collective_index=event, comm_name=self.name,
                )
        return copies

    def reduce(
        self,
        arrays: Sequence[Any],
        root: int = 0,
        precision: Optional[Precision] = None,
        phase: str = "comm",
        backend: Optional[Backend] = None,
    ) -> Any:
        """Tree-sum per-rank arrays to the root; returns the root's result.

        ``precision`` sets the accumulation precision (the paper's
        mixed-precision framework may run the Phase-5 reduction in
        single precision).
        """
        self._maybe_fail("reduce")
        target, event = self._corruption_target("reduce")
        be = backend if backend is not None else self.backend
        bufs = self._check_per_rank(arrays, "reduce", be)
        if not (0 <= root < self.size):
            raise ReproError(f"root {root} out of range for size {self.size}")
        verify = self.verify_payloads or target is not None
        digests = [_ck.payload_digest(b) for b in bufs] if verify else None
        if target is not None:
            # Corrupt the target's contribution in transport — on a copy,
            # so the caller's partial buffers stay intact for the replay.
            bufs[target] = be.copy(bufs[target])
            _ck.flip_bit(
                bufs[target],
                self.corruption.element_index(2 * int(be.size(bufs[target]))),
                bit=self.corruption.bit,
            )
        if verify:
            for rank, b in enumerate(bufs):
                _ck.verify_payload(
                    b, digests[rank], op="reduce", phase=phase, rank=rank,
                    collective_index=event, comm_name=self.name,
                )
        out = tree_reduce_arrays(bufs, precision=precision, backend=be)
        self.op_counts["reduce"] += 1
        self._charge(self.size, be.nbytes(bufs[0]), phase, op="reduce")
        return out

    def reduce_segments(
        self,
        segments: Sequence[Any],
        n: int,
        root: int = 0,
        precision: Optional[Precision] = None,
        phase: str = "comm",
        backend: Optional[Backend] = None,
    ) -> Any:
        """Partition-invariant reduce of canonical contraction segments.

        ``segments`` holds one dict per rank, mapping virtual tree
        extents (:func:`repro.util.pairwise.canonical_segments` of the
        rank's contiguous slice of a global axis of length ``n``) to
        partial arrays.  The root receives the fixed-tree merge
        (:func:`repro.comm.collectives.fixed_tree_reduce_segments`) —
        **bitwise identical for any partition**, unlike :meth:`reduce`,
        whose tree is indexed by rank.

        Cost: each rank ships all of its segment partials up the tree,
        so the charged payload is the *largest per-rank total* — the
        slowest contributor gates the collective.  A rank's range
        decomposes into at most ``2*log2(n)`` segments, each a full
        output-part panel, so this reduce moves more bytes than the
        post-IFFT :meth:`reduce` of the fast path; that volume is part
        of the determinism tax the benchmarks report.
        """
        self._maybe_fail("reduce")
        target, event = self._corruption_target("reduce")
        be = backend if backend is not None else self.backend
        if len(segments) != self.size:
            raise ReproError(
                f"reduce_segments: expected {self.size} per-rank segment "
                f"dicts, got {len(segments)}"
            )
        if not (0 <= root < self.size):
            raise ReproError(f"root {root} out of range for size {self.size}")
        verify = self.verify_payloads or target is not None
        digests = [_ck.table_digest(t) for t in segments] if verify else None
        if target is not None:
            # Flip one bit of one of the target's segment panels, on
            # copies so the caller's tables survive for the replay.
            segments = list(segments)
            segments[target] = {
                key: be.copy(be.asarray(a))
                for key, a in segments[target].items()
            }
            _ck.flip_table_bit(
                segments[target],
                self.corruption.element_index(1 << 30),
                bit=self.corruption.bit,
            )
        if verify:
            for rank, table in enumerate(segments):
                _ck.verify_table(
                    table, digests[rank], op="reduce", phase=phase, rank=rank,
                    collective_index=event, comm_name=self.name,
                )
        merged: dict = {}
        for rank, table in enumerate(segments):
            if not table:
                raise ReproError(f"rank {rank} contributed zero segments")
            for key in table:
                if key in merged:
                    raise ReproError(
                        f"segment {key} contributed by more than one rank"
                    )
            merged.update(table)
        out = fixed_tree_reduce_segments(
            merged, n, precision=precision, backend=be
        )
        self.op_counts["reduce"] += 1
        nbytes = max(
            float(sum(be.nbytes(be.asarray(a)) for a in table.values()))
            for table in segments
        )
        self._charge(self.size, nbytes, phase, op="reduce")
        return out

    def allreduce(
        self,
        arrays: Sequence[Any],
        precision: Optional[Precision] = None,
        phase: str = "comm",
        backend: Optional[Backend] = None,
    ) -> List[Any]:
        """Reduce + broadcast; every rank receives the identical sum."""
        self._maybe_fail("allreduce")
        be = backend if backend is not None else self.backend
        bufs = self._check_per_rank(arrays, "allreduce", be)
        out = tree_reduce_arrays(bufs, precision=precision, backend=be)
        self.op_counts["allreduce"] += 1
        # reduce + bcast trees; charge both.
        self._charge(self.size, be.nbytes(bufs[0]), phase, op="allreduce")
        self._charge(self.size, be.nbytes(bufs[0]), phase, op="allreduce")
        return [be.copy(out) for _ in range(self.size)]

    def allgather(
        self,
        arrays: Sequence[Any],
        phase: str = "comm",
        backend: Optional[Backend] = None,
    ) -> List[Any]:
        """Concatenate per-rank arrays; every rank receives the whole."""
        self._maybe_fail("allgather")
        be = backend if backend is not None else self.backend
        bufs = self._check_per_rank(arrays, "allgather", be)
        gathered = be.concatenate([be.ravel(b) for b in bufs])
        self.op_counts["allgather"] += 1
        self._charge(self.size, be.nbytes(gathered), phase, op="allgather")
        return [be.copy(gathered) for _ in range(self.size)]

    def scatter(
        self,
        chunks: Sequence[Any],
        root: int = 0,
        phase: str = "comm",
        backend: Optional[Backend] = None,
    ) -> List[Any]:
        """Distribute root's per-rank chunks."""
        self._maybe_fail("scatter")
        be = backend if backend is not None else self.backend
        bufs = self._check_per_rank(chunks, "scatter", be)
        if not (0 <= root < self.size):
            raise ReproError(f"root {root} out of range for size {self.size}")
        self.op_counts["scatter"] += 1
        self._charge(self.size, max(be.nbytes(b) for b in bufs), phase, op="scatter")
        return [be.copy(b) for b in bufs]

    def barrier(self, phase: str = "comm") -> None:
        """Synchronize (latency-only collective)."""
        self._maybe_fail("barrier")
        self.op_counts["barrier"] += 1
        self._charge(self.size, 0.0, phase, op="barrier")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimCommunicator({self.name!r}, size={self.size}, span={self.span})"
