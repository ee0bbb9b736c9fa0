"""2D processor grid with row/column subcommunicators.

FFTMatvec distributes the block matrix over a ``pr x pc`` grid: rank
``(r, c)`` owns the ``(Nd/pr) x (Nm/pc)`` sub-block of every Toeplitz
block.  Placement is row-major (rank = r * pc + c), matching Frontier
runs with "closest" GPU binding: a grid *row* occupies ``pc``
consecutive machine ranks (cheap, in-group collectives for the Phase-5
reduction), while a grid *column* strides by ``pc`` and spans the whole
machine (its Phase-1 broadcast pays inter-group costs).

The grid holds one communicator per row and per column — the paper's
one broadcast per column and one reduce per row — and the clock a grid
engine realizes its wall on.  The communicators own no clock: an engine
hands the chunk schedule's stream to the collectives that gate the wall
(:meth:`~repro.comm.simcomm.SimCommunicator.on_stream`).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.comm.netmodel import NetworkModel, SIMPLE_NETWORK
from repro.comm.simcomm import SimCommunicator
from repro.util.timing import SimClock
from repro.util.validation import ReproError, check_positive_int

__all__ = ["ProcessGrid"]


class ProcessGrid:
    """A ``pr x pc`` process grid: its row and column communicators and
    the grid clock."""

    def __init__(
        self,
        pr: int,
        pc: int,
        net: NetworkModel = SIMPLE_NETWORK,
    ) -> None:
        self.pr = check_positive_int(pr, "pr")
        self.pc = check_positive_int(pc, "pc")
        self.size = self.pr * self.pc
        self.net = net
        self.clock = SimClock()
        # A row's pc members are contiguous; a column's pr members stride
        # by pc and span (pr-1)*pc + 1 machine ranks.
        self._row_comms = [
            SimCommunicator(self.pc, net=net, span=self.pc, name=f"row{r}")
            for r in range(self.pr)
        ]
        col_span = (self.pr - 1) * self.pc + 1
        self._col_comms = [
            SimCommunicator(self.pr, net=net, span=col_span, name=f"col{c}")
            for c in range(self.pc)
        ]

    # -- fault injection ------------------------------------------------------
    def install_failure_schedule(self, schedule) -> None:
        """Attach one :class:`~repro.comm.fault.FailureSchedule` grid-wide.

        Installs the same schedule object on every row/column
        communicator, so its collective counter sees the full
        deterministic sequence the SPMD loop runs.  Pass ``None`` to
        disarm.
        """
        for comm in self._row_comms:
            comm.install_failure_schedule(schedule)
        for comm in self._col_comms:
            comm.install_failure_schedule(schedule)

    def install_corruption_schedule(self, schedule) -> None:
        """Attach one :class:`~repro.comm.fault.CorruptionSchedule` grid-wide.

        Same contract as :meth:`install_failure_schedule`: the one
        schedule object goes on every row/column communicator (shared
        event counter), and payload verification switches on with it.
        Pass ``None`` to disarm (verification switches off with it).
        """
        for comm in self._row_comms:
            comm.install_corruption_schedule(schedule)
        for comm in self._col_comms:
            comm.install_corruption_schedule(schedule)

    def set_payload_verification(self, on: bool) -> None:
        """Toggle receive-side payload digests on every grid communicator.

        Defense without injection: verification alone catches corruption
        from any source; it is also implied by installing a corruption
        schedule.
        """
        for comm in self._row_comms:
            comm.verify_payloads = bool(on)
        for comm in self._col_comms:
            comm.verify_payloads = bool(on)

    # -- rank arithmetic -----------------------------------------------------
    def rank_of(self, row: int, col: int) -> int:
        """World rank of grid coordinates (row-major placement)."""
        if not (0 <= row < self.pr and 0 <= col < self.pc):
            raise ReproError(
                f"coords ({row},{col}) out of range for {self.pr}x{self.pc} grid"
            )
        return row * self.pc + col

    def row_comm(self, row: int) -> SimCommunicator:
        """Communicator of grid row ``row`` (pc members, contiguous)."""
        if not (0 <= row < self.pr):
            raise ReproError(f"row {row} out of range")
        return self._row_comms[row]

    def col_comm(self, col: int) -> SimCommunicator:
        """Communicator of grid column ``col`` (pr members, strided)."""
        if not (0 <= col < self.pc):
            raise ReproError(f"col {col} out of range")
        return self._col_comms[col]

    # -- block distribution ----------------------------------------------------
    @staticmethod
    def split_extent(n: int, parts: int) -> List[Tuple[int, int]]:
        """Balanced 1-D block partition: list of (start, stop) per part.

        First ``n % parts`` parts get one extra element, like the original
        code's ceil-based ownership (``nm = ceil(Nm/pc)`` on early ranks).
        """
        check_positive_int(n, "n")
        check_positive_int(parts, "parts")
        base, extra = divmod(n, parts)
        out: List[Tuple[int, int]] = []
        start = 0
        for p in range(parts):
            stop = start + base + (1 if p < extra else 0)
            out.append((start, stop))
            start = stop
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessGrid({self.pr}x{self.pc})"
