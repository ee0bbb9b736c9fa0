"""Simulated clock, event timeline, and timing reports.

All FFTMatvec "runtimes" in this reproduction come from a simulated device
clock: kernels and collectives *advance* the clock by their modeled cost
(bytes moved / achieved bandwidth + launch overhead), exactly as described
in DESIGN.md.  The clock deliberately has no relation to Python wall time.

:class:`SimClock` is the serial substrate: one monotone timeline, every
charge advances it.  :class:`Timeline` layers a stream/event model on top
for schedules that overlap work — communication prefetch against compute,
host routines against the device.  Work is charged onto independent
:class:`Stream` cursors; :class:`Event` markers recorded on one stream can
be waited on from another (``record``/``wait``, CUDA/HIP-style); and wall
time is the *max* over stream cursors, realized on the underlying clock at
:meth:`Timeline.sync` points.  Phase accounting stays on the shared clock
(a stream charge attributes its phase immediately), so per-phase
breakdowns report work done while wall time reports the critical path —
for an overlapped schedule the phase sum deliberately exceeds the wall.

:class:`TimingReport` mirrors the output of the original ``fft_matvec``
executable, which prints per-phase timings (pad, FFT, SBGEMV, IFFT, unpad)
plus setup/total/cleanup lines, averaged over repetitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.util.validation import ReproError

__all__ = [
    "SimClock",
    "Timeline",
    "Stream",
    "Event",
    "run_chunk_schedule",
    "HostModel",
    "PhaseTimer",
    "TimingReport",
]


@dataclass(frozen=True)
class HostModel:
    """Host-side costs per vector (seconds).

    ``gen_time`` covers producing the next input (RNG / reading a unit
    vector / disk read); ``save_time`` covers writing the result.  The
    grid engine's fused three-stream schedule
    (``ParallelFFTMatvec(host=...)``, a 1x1 grid for one device) charges
    these onto a dedicated host stream, so generate/save overlap device
    compute *and* collectives.
    """

    gen_time: float = 50e-6
    save_time: float = 100e-6

    def __post_init__(self) -> None:
        if self.gen_time < 0 or self.save_time < 0:
            raise ReproError("host times must be non-negative")

    @property
    def per_vector(self) -> float:
        return self.gen_time + self.save_time


class _PhaseScope:
    """``with clock.phase(name)``: push the name, pop it on the way out."""

    __slots__ = ("stack", "name")

    def __init__(self, stack: List[str], name: str) -> None:
        self.stack, self.name = stack, name

    def __enter__(self) -> None:
        self.stack.append(self.name)

    def __exit__(self, *exc) -> None:
        self.stack.pop()


class SimClock:
    """A monotonically advancing simulated clock (seconds).

    The clock supports named *phase accounting*: while a phase is active,
    all advances are attributed to it.  Nested phases attribute time to the
    innermost phase only, matching how a profiler attributes GPU kernel
    time to the enclosing region.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._phase_stack: List[str] = []
        self._phase_totals: Dict[str, float] = {}

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float, phase: Optional[str] = None) -> None:
        """Advance the clock; attributes time to ``phase``, or without
        one to the innermost open phase."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time {seconds}")
        self._now += seconds
        self.attribute(seconds, phase)

    def attribute(self, seconds: float, phase: Optional[str] = None) -> None:
        """Attribute seconds to phase accounting *without* advancing time.

        Streams use this: work charged onto a stream is phase-attributed
        when charged, while wall time advances only at timeline sync
        points.  ``phase=None`` attributes to the innermost open phase
        (no-op when none is open).
        """
        if seconds < 0:
            raise ValueError(f"cannot attribute negative time {seconds}")
        name = phase if phase is not None else (
            self._phase_stack[-1] if self._phase_stack else None
        )
        if name is not None:
            self._phase_totals[name] = self._phase_totals.get(name, 0.0) + seconds

    def advance_to(self, when: float) -> None:
        """Move the clock forward to an absolute time (no phase attribution).

        Used by :meth:`Timeline.sync`: the jump to the maximum stream
        cursor is elapsed wall time, not attributable work.  Backward
        moves are ignored (the clock is monotone).
        """
        if when > self._now:
            self._now = when

    def phase(self, name: str) -> "_PhaseScope":
        """Attribute all clock advances inside the block to ``name``
        (a reusable context manager: the state is the clock's stack)."""
        return _PhaseScope(self._phase_stack, name)

    def phase_total(self, name: str) -> float:
        """Accumulated seconds attributed to a phase (0.0 if never seen)."""
        return self._phase_totals.get(name, 0.0)

    def phase_totals(self) -> Dict[str, float]:
        """Copy of all per-phase accumulated times."""
        return dict(self._phase_totals)

    def reset_phases(self) -> None:
        """Clear phase accounting without resetting absolute time."""
        self._phase_totals.clear()

    def reset(self) -> None:
        """Reset absolute time and phase accounting."""
        self._now = 0.0
        self._phase_totals.clear()


@dataclass(frozen=True)
class Event:
    """A point on a stream's timeline (cursor value at :meth:`Stream.record`).

    Events are immutable once recorded; waiting on one from another
    stream models a cross-stream dependency (the waiter cannot proceed
    before the recorded work completes).
    """

    time: float
    stream: str = ""
    label: str = ""


class Stream:
    """An in-order work queue with its own completion cursor.

    Work charged onto a stream completes at ``cursor`` (absolute
    simulated seconds); charges are serialized in call order, mirroring
    a HIP/CUDA stream.  The cursor starts at the shared clock's current
    time when the stream is created — a fresh stream is idle "now",
    independent of work other streams already have in flight (create
    streams before charging, or ``wait`` on an event, to order against
    them).
    """

    def __init__(self, timeline: "Timeline", name: str) -> None:
        self.timeline = timeline
        self.name = name
        self.cursor = timeline.clock.now

    def charge(self, seconds: float, phase: Optional[str] = None) -> float:
        """Enqueue ``seconds`` of work; returns the new cursor.

        The phase is attributed on the shared clock immediately (work
        accounting); wall time advances only at :meth:`Timeline.sync`.
        """
        if seconds < 0:
            raise ValueError(f"cannot charge negative time {seconds}")
        self.cursor += seconds
        self.timeline.clock.attribute(seconds, phase)
        return self.cursor

    def record(self, label: str = "") -> Event:
        """Mark the completion point of all work charged so far."""
        ev = Event(time=self.cursor, stream=self.name, label=label)
        self.timeline.events.append(ev)
        return ev

    def wait(self, event: Event) -> float:
        """Stall this stream until ``event`` completes; returns the cursor."""
        if event.time > self.cursor:
            self.cursor = event.time
        return self.cursor

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Stream({self.name!r}, t={self.cursor:.6f}s)"


class Timeline:
    """A set of concurrent streams over one shared :class:`SimClock`.

    The timeline realizes the overlap semantics of the paper's Sec.
    4.2.2 schedules: independent streams accumulate work concurrently,
    cross-stream ``record``/``wait`` edges express dependencies, and the
    wall time observed on the clock at a :meth:`sync` point is the
    maximum stream cursor — the critical path through the schedule, not
    the sum of the work.
    """

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.streams: Dict[str, Stream] = {}
        self.events: List[Event] = []

    def stream(self, name: str) -> Stream:
        """Get or create the named stream (cursor starts at clock.now)."""
        if name not in self.streams:
            self.streams[name] = Stream(self, name)
        return self.streams[name]

    @property
    def frontier(self) -> float:
        """Latest completion time across all streams (>= clock.now)."""
        cursors = [s.cursor for s in self.streams.values()]
        return max([self.clock.now] + cursors)

    def sync(self) -> float:
        """Join every stream: advance the clock to the frontier.

        All stream cursors are pulled up to the synchronized time (a
        barrier), so work charged afterwards starts from a common
        origin.  Returns the synchronized wall time.
        """
        now = self.frontier
        self.clock.advance_to(now)
        for s in self.streams.values():
            s.cursor = now
        return now

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ", ".join(self.streams) or "no streams"
        return f"Timeline({names}; t={self.frontier:.6f}s)"


def run_chunk_schedule(
    clock: Optional[SimClock],
    chunks: Sequence[int],
    bcast: Callable[[int, Stream], float],
    compute: Callable[[int, Stream], object],
    reduce: Callable[[int, Stream], float],
    exposed: float = 0.0,
    gen: Optional[Sequence[float]] = None,
    save: Optional[Sequence[float]] = None,
) -> float:
    """The double-buffered chunk schedule (paper Sec. 4.2.2, Figure 4).

    The one definition of the grid's chunk schedule: the engine
    (:class:`~repro.core.parallel.ParallelFFTMatvec`) runs its chunks
    through it with callbacks that do the work, the perf model
    (:func:`~repro.perf.phase_model.overlapped_chunk_schedule`) with
    callbacks that charge a scalar.  Every ``record`` / ``wait`` edge
    lives here:

    * the **comm stream** runs ``bcast(0), bcast(1), reduce(0),
      bcast(2), reduce(1), …, reduce(n-1)`` — chunk ``i+1``'s broadcast
      is *prefetched* while chunk ``i`` computes;
    * the **compute stream** runs chunk ``i`` once ``bcast(i)``'s event
      has completed;
    * ``reduce(i)`` waits on ``compute(i)``'s event and overlaps chunk
      ``i+1``'s compute;
    * with ``exposed > 0`` (imperfect overlap, link contention) that
      share of every *overlapped* collective — the prefetched
      broadcasts and the interior reduces — is charged onto the compute
      stream as well, so at ``exposed = 1`` the schedule converges back
      to the serial charge;
    * with per-chunk host costs a third **host stream** generates chunk
      ``i`` (``gen[i]`` seconds) before — and its event gates —
      ``bcast(i)``, and saves it (``save[i]``) once ``reduce(i)`` has
      delivered.  The host stream is in order, so ``gen(i+1)`` precedes
      ``save(i)`` (the double-buffer slot) and ``save(i)`` precedes
      ``gen(i+2)``: two buffers, neither side runs further ahead.

    ``chunks`` are the chunk indices handed to the callbacks, in order.
    ``bcast(i, stream)``, ``compute(i, stream)`` and ``reduce(i,
    stream)`` charge their work onto the stream they are given;
    ``bcast`` and ``reduce`` return the seconds they charged (the
    exposed share is taken of exactly that number, so neither caller's
    floats depend on the other's).  ``gen`` / ``save`` come together and
    are indexed by chunk index.  Streams start at ``clock.now`` (a
    private clock when ``clock`` is None) and are joined at the end: the
    clock advances by the critical path, and the synchronized time is
    returned.  A callback that raises leaves them unjoined — nothing of
    the failed pass reaches ``clock.now``; phase totals keep what was
    charged.  Fed one chunk, the schedule *is* the serial broadcast →
    compute → reduce charge, addition for addition.
    """
    tl = Timeline(clock)
    comm, comp = tl.stream("comm"), tl.stream("compute")
    host = tl.stream("host") if gen is not None else None

    def prefetch(i: int) -> Tuple[Event, float]:
        if host is not None:
            # The broadcast cannot leave before the host has produced it.
            host.charge(gen[i], phase="host")
            comm.wait(host.record(f"gen[{i}]"))
        seconds = bcast(i, comm)
        return comm.record(f"bcast[{i}]"), seconds

    last = len(chunks) - 1
    ev_bcast, _ = prefetch(chunks[0]) if chunks else (None, 0.0)
    reduce_tax = 0.0  # exposed share of the previous chunk's reduce
    for n, i in enumerate(chunks):
        comp.wait(ev_bcast)
        if reduce_tax > 0.0:
            # The previous chunk's reduce steals link/engine bandwidth
            # from this chunk's compute ...
            comp.charge(reduce_tax, phase="unpad")
        compute(i, comp)
        if n < last:
            ev_bcast, t_next = prefetch(chunks[n + 1])
            if exposed > 0.0:
                # ... as does the prefetched broadcast.
                comp.charge(exposed * t_next, phase="pad")
        comm.wait(comp.record(f"compute[{i}]"))
        t_reduce = reduce(i, comm)
        # This reduce overlaps the *next* chunk's compute (if any).
        reduce_tax = exposed * t_reduce if n < last else 0.0
        if host is not None:
            host.wait(comm.record(f"reduce[{i}]"))
            host.charge(save[i], phase="host")
    return tl.sync()


@dataclass
class PhaseTimer:
    """Records the duration of a single named region on a :class:`SimClock`."""

    clock: SimClock
    name: str
    start: float = 0.0
    elapsed: Optional[float] = None

    def __enter__(self) -> "PhaseTimer":
        self.start = self.clock.now
        self._cm = self.clock.phase(self.name)
        self._cm.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._cm.__exit__(*exc)
        self.elapsed = self.clock.now - self.start


# Canonical phase order used by the matvec engine and all figures.
PHASE_ORDER = ("pad", "fft", "sbgemv", "ifft", "unpad")


@dataclass
class TimingReport:
    """Per-phase timing breakdown of one (or averaged) matvec call(s).

    Attributes
    ----------
    phases:
        Mapping from phase name (``pad``, ``fft``, ``sbgemv``, ``ifft``,
        ``unpad``, and optionally ``comm``) to seconds.
    setup, cleanup:
        One-time costs outside the performance-critical loop.
    reps:
        Number of repetitions averaged into ``phases``.
    wall:
        Elapsed wall time of the call, when it differs from the phase
        sum: an overlapped schedule hides communication behind compute,
        so ``wall < total`` while ``phases`` still reports every second
        of work charged.  ``None`` for serial schedules (wall == total).
    """

    phases: Dict[str, float] = field(default_factory=dict)
    setup: float = 0.0
    cleanup: float = 0.0
    reps: int = 1
    label: str = ""
    wall: Optional[float] = None

    @property
    def total(self) -> float:
        """Sum of all per-phase times (one matvec)."""
        return float(sum(self.phases.values()))

    @property
    def elapsed(self) -> float:
        """Wall time of the call: ``wall`` when set, else the phase sum."""
        return self.wall if self.wall is not None else self.total

    def phase(self, name: str) -> float:
        """Seconds attributed to one phase (0.0 if absent)."""
        return self.phases.get(name, 0.0)

    def fraction(self, name: str) -> float:
        """Fraction of total time spent in a phase."""
        t = self.total
        return self.phases.get(name, 0.0) / t if t > 0 else 0.0

    def scaled(self, factor: float) -> "TimingReport":
        """A report with every time multiplied by ``factor``."""
        return TimingReport(
            phases={k: v * factor for k, v in self.phases.items()},
            setup=self.setup * factor,
            cleanup=self.cleanup * factor,
            reps=self.reps,
            label=self.label,
            wall=self.wall * factor if self.wall is not None else None,
        )

    def merged(self, other: "TimingReport") -> "TimingReport":
        """Phase-wise sum of two reports (used to accumulate repetitions)."""
        phases = dict(self.phases)
        for k, v in other.phases.items():
            phases[k] = phases.get(k, 0.0) + v
        # A report without an explicit wall contributes its phase sum
        # (wall == total for serial schedules), so mixing serial and
        # overlapped reports keeps the combined wall honest.
        any_wall = self.wall is not None or other.wall is not None
        return TimingReport(
            phases=phases,
            setup=self.setup + other.setup,
            cleanup=self.cleanup + other.cleanup,
            reps=self.reps + other.reps,
            label=self.label or other.label,
            wall=self.elapsed + other.elapsed if any_wall else None,
        )

    def averaged(self) -> "TimingReport":
        """Average the accumulated repetitions down to one matvec."""
        n = max(self.reps, 1)
        return TimingReport(
            phases={k: v / n for k, v in self.phases.items()},
            setup=self.setup,
            cleanup=self.cleanup,
            reps=1,
            label=self.label,
            wall=self.wall / n if self.wall is not None else None,
        )

    def lines(self, raw: bool = False) -> List[str]:
        """Render in the style of the original executable's timing output.

        With ``raw=True`` the output is machine-parseable CSV-ish lines,
        mirroring the original ``-raw`` flag.
        """
        ordered = [p for p in PHASE_ORDER if p in self.phases]
        ordered += [p for p in sorted(self.phases) if p not in PHASE_ORDER]
        out: List[str] = []
        if raw:
            out.append("setup," + repr(self.setup))
            out.append("total," + repr(self.total))
            out.append("cleanup," + repr(self.cleanup))
            for p in ordered:
                out.append(f"{p},{self.phases[p]!r}")
        else:
            head = f" Timing ({self.label})" if self.label else " Timing"
            out.append(head)
            out.append(f"   setup   : {self.setup * 1e3:10.4f} ms")
            out.append(f"   total   : {self.total * 1e3:10.4f} ms")
            out.append(f"   cleanup : {self.cleanup * 1e3:10.4f} ms")
            for p in ordered:
                out.append(f"   {p:<8}: {self.phases[p] * 1e3:10.4f} ms")
        return out
