"""Seeded fault injection for the simulated communicator.

The production fleet loses ranks: node reboots, ECC faults, wall-time
eviction.  In the simulation every rank lives in one process, so "a rank
dies" is modeled at the point where a real job would first observe it —
a collective that never completes.  :class:`FailureSchedule` decides, at
every collective a :class:`~repro.comm.simcomm.SimCommunicator` runs,
whether a scheduled failure fires there; when it does the communicator
raises :class:`RankFailure` naming the victim rank, the collective kind
and the global collective index.

Two scheduling modes share one object:

* **Explicit** — ``FailureSchedule(kills=[(index, rank), ...])``: kill
  ``rank`` at the ``index``-th collective (0-based, counted across every
  communicator the schedule is installed on — a grid's rows and columns
  — in the deterministic order the SPMD loop runs them).  This is what targeted tests use to hit a specific chunk.
* **Seeded** — :meth:`FailureSchedule.seeded`: draw ``n_failures``
  distinct kill points uniformly from the first ``horizon`` collectives
  with ``numpy``'s seeded generator.  Chaos tests print the seed; any
  failure reproduces by rerunning with the same seed.

Each kill fires **once** — replaying the lost work on a rebuilt grid
re-counts collectives past the kill point without retriggering it, and
a multi-kill schedule keeps firing its remaining kills on the rebuilt
engines (cascading failures are just more entries).  The counter is
shared by design: one schedule installed on a whole grid sees the same
deterministic collective sequence the run performs, which is what makes
a printed seed sufficient to reproduce a chaos failure.

:class:`CorruptionSchedule` is the *fail-silent* sibling: instead of
killing a rank it flips one bit in a device buffer or collective
payload at a scheduled event, exactly the way :class:`FailureSchedule`
schedules kills (same explicit/seeded modes, same shared event counter,
same fire-once semantics so chunk replays run clean).  The schedule
itself never raises — the component that fired the event performs the
flip (:func:`repro.util.checksum.flip_bit`), and the *detection* layer
(payload digests, ABFT column checksums, Parseval energy checks) raises
the typed :class:`SilentCorruption`, re-exported here from
:mod:`repro.util.checksum` together with :class:`NumericalHealthError`
(a NaN/Inf in an engine's pad or unpad output under
``validate="abft"``, or in a request payload at submit: bad input, not
corruption).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.util.checksum import NumericalHealthError, SilentCorruption
from repro.util.validation import ReproError, check_positive_int

__all__ = [
    "RankFailure",
    "FailureSchedule",
    "SilentCorruption",
    "NumericalHealthError",
    "CorruptionSchedule",
]


class RankFailure(ReproError):
    """A simulated rank died at a collective.

    Carries what the recovery layer needs: the victim ``rank`` (world
    numbering of the grid the schedule was installed on), the collective
    ``op`` it died in, the global ``collective_index`` at which it fired
    and the ``comm_name`` of the communicator that observed it.
    """

    def __init__(
        self, rank: int, op: str, collective_index: int, comm_name: str = "world"
    ) -> None:
        self.rank = int(rank)
        self.op = str(op)
        self.collective_index = int(collective_index)
        self.comm_name = str(comm_name)
        super().__init__(
            f"rank {rank} failed during {op!r} "
            f"(collective #{collective_index} on {comm_name})"
        )


class FailureSchedule:
    """Deterministic schedule of rank kills, counted over collectives.

    Parameters
    ----------
    kills:
        Sequence of ``(collective_index, rank)`` pairs.  Indices are
        0-based positions in the stream of collectives observed by every
        communicator this schedule is installed on; each entry fires at
        most once.
    seed:
        Recorded provenance (set by :meth:`seeded`); chaos fixtures
        print it so a failing scenario can be replayed exactly.
    """

    def __init__(
        self,
        kills: Sequence[Tuple[int, int]] = (),
        seed: Optional[int] = None,
    ) -> None:
        self._pending = {}
        for index, rank in kills:
            index = int(index)
            rank = int(rank)
            if index < 0:
                raise ReproError(f"collective index must be >= 0, got {index}")
            if rank < 0:
                raise ReproError(f"rank must be >= 0, got {rank}")
            if index in self._pending:
                raise ReproError(
                    f"duplicate kill at collective index {index}; one victim "
                    "per collective (schedule more collectives for cascades)"
                )
            self._pending[index] = rank
        self.seed = seed
        self.calls = 0  # collectives observed so far, across installs
        self.fired: List[RankFailure] = []

    @classmethod
    def seeded(
        cls,
        seed: int,
        size: int,
        n_failures: int = 1,
        horizon: int = 32,
        first: int = 0,
    ) -> "FailureSchedule":
        """Draw ``n_failures`` kill points from a seeded generator.

        Kill indices are distinct draws from ``[first, first + horizon)``
        and victims are uniform over ``range(size)``.  Same
        ``(seed, size, n_failures, horizon, first)`` → same schedule.
        """
        check_positive_int(size, "size")
        check_positive_int(horizon, "horizon")
        if n_failures < 1:
            raise ReproError(f"n_failures must be >= 1, got {n_failures}")
        if n_failures > horizon:
            raise ReproError(
                f"cannot place {n_failures} failures in a horizon of {horizon}"
            )
        rng = np.random.default_rng(seed)
        indices = rng.choice(horizon, size=n_failures, replace=False) + first
        ranks = rng.integers(0, size, size=n_failures)
        kills = sorted(
            (int(i), int(r)) for i, r in zip(indices, ranks)
        )
        return cls(kills=kills, seed=int(seed))

    @property
    def pending(self) -> Tuple[Tuple[int, int], ...]:
        """Remaining ``(collective_index, rank)`` kills, ascending."""
        return tuple(sorted(self._pending.items()))

    def on_collective(self, op: str, comm_name: str = "world") -> None:
        """Advance the collective counter; raise if a kill is due here.

        Called by :class:`~repro.comm.simcomm.SimCommunicator` at the
        top of every collective.  The kill is consumed *before* raising
        so that replaying the lost work does not immediately re-fire.
        """
        index = self.calls
        self.calls += 1
        rank = self._pending.pop(index, None)
        if rank is not None:
            failure = RankFailure(rank, op, index, comm_name)
            self.fired.append(failure)
            raise failure

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FailureSchedule(pending={self.pending}, fired={len(self.fired)}, "
            f"calls={self.calls}, seed={self.seed})"
        )


class CorruptionSchedule:
    """Deterministic schedule of single-bit flips, counted over events.

    The fail-silent counterpart of :class:`FailureSchedule`.  Events are
    the points the engines declare corruptible: every ``bcast`` /
    ``reduce`` / ``reduce_segments`` on a communicator the schedule is
    installed on, and every FFT / SBGEMM / IFFT stage of an engine it is
    installed on — counted in the deterministic order the SPMD loop runs
    them, shared across installs.  When an event's index is scheduled,
    :meth:`on_event` *consumes* the entry and returns the target rank;
    the firing component then flips one bit of the affected buffer
    (:func:`repro.util.checksum.flip_bit` at :meth:`element_index`, bit
    :attr:`bit`) — silently, exactly like real SDC.  Detection is the
    checksum layer's job; a consumed event never re-fires, so the chunk
    recomputation an :class:`~repro.core.elastic.ElasticEngine` runs
    after detection is clean (and bitwise-exact under
    ``reduction="pairwise"``).

    Parameters
    ----------
    flips:
        ``(event_index, rank)`` pairs: flip a bit of ``rank``'s buffer
        at the ``index``-th event.  Device-site events belong to exactly
        one engine, which flips its own buffer regardless of the rank
        value (the rank still labels the draw for seeded schedules).
    seed:
        Seeds the element-position generator and records provenance.
    bit:
        Bit to flip (default 62, the float64 exponent MSB — the induced
        delta is never small; clamped per-dtype by ``flip_bit``).
    """

    def __init__(
        self,
        flips: Sequence[Tuple[int, int]] = (),
        seed: Optional[int] = None,
        bit: int = 62,
    ) -> None:
        self._pending = {}
        for index, rank in flips:
            index = int(index)
            rank = int(rank)
            if index < 0:
                raise ReproError(f"event index must be >= 0, got {index}")
            if rank < 0:
                raise ReproError(f"rank must be >= 0, got {rank}")
            if index in self._pending:
                raise ReproError(
                    f"duplicate flip at event index {index}; one flip per "
                    "event (schedule more events for multi-flip campaigns)"
                )
            self._pending[index] = rank
        self.seed = seed
        self.bit = int(bit)
        self.calls = 0  # events observed so far, across installs
        self.injected: List[Tuple[int, int, str, str]] = []
        self._rng = np.random.default_rng(seed)

    @classmethod
    def seeded(
        cls,
        seed: int,
        size: int,
        n_flips: int = 1,
        horizon: int = 32,
        first: int = 0,
        bit: int = 62,
    ) -> "CorruptionSchedule":
        """Draw ``n_flips`` flip points from a seeded generator.

        Same contract as :meth:`FailureSchedule.seeded`: event indices
        are distinct draws from ``[first, first + horizon)``, target
        ranks uniform over ``range(size)``, and the same arguments
        always produce the same schedule.
        """
        check_positive_int(size, "size")
        check_positive_int(horizon, "horizon")
        if n_flips < 1:
            raise ReproError(f"n_flips must be >= 1, got {n_flips}")
        if n_flips > horizon:
            raise ReproError(
                f"cannot place {n_flips} flips in a horizon of {horizon}"
            )
        rng = np.random.default_rng(seed)
        indices = rng.choice(horizon, size=n_flips, replace=False) + first
        ranks = rng.integers(0, size, size=n_flips)
        flips = sorted((int(i), int(r)) for i, r in zip(indices, ranks))
        return cls(flips=flips, seed=int(seed), bit=bit)

    @property
    def pending(self) -> Tuple[Tuple[int, int], ...]:
        """Remaining ``(event_index, rank)`` flips, ascending."""
        return tuple(sorted(self._pending.items()))

    def on_event(self, op: str, where: str = "") -> Optional[int]:
        """Advance the event counter; return the target rank if a flip
        is due here, else None.

        The entry is consumed *before* the caller injects, so replaying
        the corrupted work observes a clean schedule.  The injection is
        recorded in :attr:`injected` as
        ``(event_index, rank, op, where)``.
        """
        index = self.calls
        self.calls += 1
        rank = self._pending.pop(index, None)
        if rank is None:
            return None
        self.injected.append((index, int(rank), str(op), str(where)))
        return int(rank)

    def element_index(self, size: int) -> int:
        """Seeded flat position of the next flip within a buffer."""
        check_positive_int(size, "size")
        return int(self._rng.integers(0, size))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CorruptionSchedule(pending={self.pending}, "
            f"injected={len(self.injected)}, calls={self.calls}, "
            f"seed={self.seed}, bit={self.bit})"
        )
