"""Elastic fault-tolerant driver over :class:`ParallelFFTMatvec`.

The recovery half of the fault-tolerance story (the serialization half
is :mod:`repro.util.checkpoint`): :class:`ElasticEngine` owns a grid
engine and drives blocked applies **chunk by chunk**, committing each
chunk's columns into the output as it completes.  When a collective
raises :class:`~repro.comm.fault.RankFailure`, completed chunks are
kept, the surviving ``N - 1`` ranks are re-partitioned evenly
(:meth:`~repro.comm.grid.ProcessGrid.split_extent`) onto a fresh grid,
and only the lost chunk (plus the not-yet-run remainder) is replayed.

Why the recovered result can claim **bitwise equality** with the
no-failure run: under ``reduction="pairwise"`` (PR 8) every chunk's
result is invariant to the row/column partition *and* to chunking — the
virtual-binary-tree contraction is indexed by global element positions,
not by ranks.  Replaying a chunk on a reshaped ``N - 1``-rank grid
therefore reproduces the exact bits the dead grid would have produced,
and stitching per-chunk results equals the single uninterrupted call.
Under ``reduction="fast"`` recovery still returns a correct result, but
the reduce tree is rank-indexed, so only ``~1e-12`` relative agreement
is guaranteed — the chaos tests assert the strong claim on pairwise
only.

Elasticity is symmetric: :meth:`ElasticEngine.resize` grows (``N + 1``
when a replacement node joins) or shrinks the grid between applies, with
the same bitwise guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.comm.fault import (
    CorruptionSchedule,
    FailureSchedule,
    RankFailure,
    SilentCorruption,
)
from repro.comm.grid import ProcessGrid
from repro.comm.netmodel import SIMPLE_NETWORK
from repro.core.parallel import ParallelFFTMatvec
from repro.core.precision import PrecisionConfig
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.util.blocking import (
    check_block,
    check_out_buffer,
    chunk_ranges,
    validate_max_block_k,
)
from repro.util.validation import ReproError, check_positive_int

__all__ = [
    "FailureEvent",
    "CorruptionEvent",
    "RecoveryReport",
    "elastic_grid_shape",
    "ElasticEngine",
]


def elastic_grid_shape(
    n_ranks: int, nd: int, nm: int
) -> Tuple[int, int]:
    """Choose a ``pr x pc`` grid shape for ``n_ranks`` survivors.

    Every factor pair ``pr * pc == n_ranks`` with ``pr <= nd`` and
    ``pc <= nm`` (each rank must own at least one row and one column —
    width-1 parts are legal under the pairwise reduction) is a
    candidate; the closest-to-square pair wins, ties broken toward more
    columns (the Phase-1 broadcast rides the cheaper contiguous axis).
    Raises when no factorization fits the operator extents.
    """
    check_positive_int(n_ranks, "n_ranks")
    best: Optional[Tuple[Tuple[int, int], Tuple[int, int]]] = None
    for pr in range(1, n_ranks + 1):
        if n_ranks % pr:
            continue
        pc = n_ranks // pr
        if pr > nd or pc > nm:
            continue
        score = (abs(pr - pc), -pc)
        if best is None or score < best[0]:
            best = (score, (pr, pc))
    if best is None:
        raise ReproError(
            f"no {n_ranks}-rank grid fits an {nd}x{nm} operator "
            f"(need pr <= {nd} and pc <= {nm} with pr*pc == {n_ranks})"
        )
    return best[1]


@dataclass(frozen=True)
class FailureEvent:
    """One observed rank failure and the reshape that absorbed it."""

    chunk: int  # chunk index that was being computed when the rank died
    rank: int  # victim world rank on the old grid
    op: str  # collective kind the failure surfaced in
    collective_index: int  # global collective counter at the failure
    old_shape: Tuple[int, int]  # (pr, pc) before recovery
    new_shape: Tuple[int, int]  # (pr, pc) after recovery
    old_ranks: int
    new_ranks: int


@dataclass(frozen=True)
class CorruptionEvent:
    """One detected silent-data-corruption and the chunk that absorbed it."""

    chunk: int  # chunk index whose apply tripped a checksum
    check: str  # which detector fired ("abft" / "energy" / "payload")
    phase: str  # pipeline phase or collective the check guarded
    rank: Optional[int]  # rank label carried by the detection, if any
    attempt: int  # how many detections this chunk has seen (1-based)


@dataclass
class RecoveryReport:
    """Cumulative recovery accounting for one :class:`ElasticEngine`."""

    events: List[FailureEvent] = field(default_factory=list)
    corruption_events: List[CorruptionEvent] = field(default_factory=list)
    rebuilds: int = 0  # grids built beyond the first (failures + resizes)
    chunks_applied: int = 0  # chunks committed, incl. replays
    chunks_replayed: int = 0  # chunks replayed after a rank failure
    chunks_recomputed: int = 0  # chunks recomputed after a detected SDC

    @property
    def failures(self) -> int:
        return len(self.events)

    @property
    def corruptions(self) -> int:
        return len(self.corruption_events)


class ElasticEngine:
    """Fault-tolerant, resizable wrapper around the grid engine.

    Parameters
    ----------
    matrix:
        The block-Toeplitz operator (shared by every grid incarnation —
        rebuilding re-slices it, nothing is lost with a dead rank).
    n_ranks:
        Initial world size; the grid shape is chosen by
        :func:`elastic_grid_shape`, on the simple network model, with no
        simulated device and the backend's fallback chain.
    reduction:
        Passed to :class:`ParallelFFTMatvec`; ``"pairwise"`` (default)
        is what makes recovery bitwise-exact.  ``"fast"`` recovers with
        only ``~1e-12`` relative agreement.
    failures:
        Optional :class:`~repro.comm.fault.FailureSchedule`, installed
        on every grid this engine builds (including recovery rebuilds,
        so multi-kill schedules cascade deterministically).
    corruptions:
        Optional :class:`~repro.comm.fault.CorruptionSchedule`,
        installed the same way.  Armed corruption implies ABFT checks
        inside every rank engine; a detected flip surfaces as
        :class:`~repro.comm.fault.SilentCorruption` and is absorbed by
        recomputing only the corrupted chunk — no grid rebuild, since
        the engine state is untouched (the flip lived in a transient
        buffer) and the consumed schedule entry never re-fires.
    max_block_k:
        Chunk width of every apply (None = one chunk), set here only:
        a chunk is the unit of commit and replay.
    validate:
        Forwarded to :class:`ParallelFFTMatvec`: ``"guard"``,
        ``"abft"`` or ``"guard+abft"`` turn on boundary checks even
        with no corruption schedule armed; ``None`` leaves them off.
    workspace:
        ``None`` or ``True``; every grid this engine builds owns its
        arenas (see :class:`ParallelFFTMatvec`).  Anything else raises.

    Recovery policy: a chunk that keeps failing its checksums past
    ``MAX_CORRUPTION_RETRIES`` recomputations re-raises the last
    :class:`SilentCorruption` (a persistent mismatch is a real bug, not
    a transient flip); a failure that would leave no survivor re-raises
    :class:`RankFailure` instead of reshaping; and after
    ``MAX_FAILURES`` absorbed failures the next one re-raises, a
    backstop against schedules that kill faster than replays finish.
    """

    MAX_CORRUPTION_RETRIES = 4
    MAX_FAILURES = 8

    def __init__(
        self,
        matrix: Union[BlockTriangularToeplitz, np.ndarray],
        n_ranks: int,
        *,
        reduction: str = "pairwise",
        max_block_k: Optional[int] = None,
        workspace: Union[None, bool] = None,
        failures: Optional[FailureSchedule] = None,
        corruptions: Optional[CorruptionSchedule] = None,
        validate: Optional[str] = None,
    ) -> None:
        if workspace not in (None, True):
            raise ReproError(f"workspace must be None or True, got {workspace!r}")
        self.matrix = (
            matrix
            if isinstance(matrix, BlockTriangularToeplitz)
            else BlockTriangularToeplitz(np.asarray(matrix))
        )
        check_positive_int(n_ranks, "n_ranks")
        self.reduction = reduction
        self.max_block_k = validate_max_block_k(max_block_k)
        self.failures = failures
        self.corruptions = corruptions
        self.validate = validate
        self.report = RecoveryReport()
        self.engine: Optional[ParallelFFTMatvec] = None
        self.n_ranks = 0
        self._build(n_ranks)

    # -- geometry -------------------------------------------------------------
    @property
    def nt(self) -> int:
        return self.matrix.nt

    @property
    def nd(self) -> int:
        return self.matrix.nd

    @property
    def nm(self) -> int:
        return self.matrix.nm

    @property
    def grid(self) -> ProcessGrid:
        return self.engine.grid

    def geometry_key(self) -> Tuple:
        """The *current* grid engine's geometry key (see
        :meth:`ParallelFFTMatvec.geometry_key`).  After a recovery
        reshape this key changes — which is exactly how the serving
        cache detects (and evicts) an engine whose grid shrank mid-run.
        """
        return self.engine.geometry_key()

    def _build(self, n_ranks: int) -> None:
        pr, pc = elastic_grid_shape(n_ranks, self.nd, self.nm)
        grid = ProcessGrid(pr, pc, net=SIMPLE_NETWORK)
        # Chunking lives in *this* layer (so a chunk is the replay unit);
        # the inner engine always sees exactly one chunk per call, on the
        # even split (``ProcessGrid.split_extent``).
        self.engine = ParallelFFTMatvec(
            self.matrix,
            grid,
            max_block_k=None,
            reduction=self.reduction,
            validate=self.validate,
        )
        if self.failures is not None:
            self.engine.install_failure_schedule(self.failures)
        if self.corruptions is not None:
            self.engine.install_corruption_schedule(self.corruptions)
        if self.n_ranks:
            self.report.rebuilds += 1
        self.n_ranks = n_ranks

    # -- elasticity -----------------------------------------------------------
    def resize(self, n_ranks: int) -> None:
        """Grow or shrink to ``n_ranks`` between applies (N+1 on grow).

        The next apply runs on the new balanced grid; under the pairwise
        reduction its results are bitwise-identical to every other size.

        Kept by ``docs/FAULT_TOLERANCE.md``: growing back to ``N`` when a
        replacement rank joins is the operator's half of elastic recovery;
        no engine path resizes on its own.
        """
        check_positive_int(n_ranks, "n_ranks")
        if n_ranks == self.n_ranks:
            return
        self._build(n_ranks)

    def install_failure_schedule(self, schedule: Optional[FailureSchedule]) -> None:
        """Swap the failure schedule (installed on the live grid too)."""
        self.failures = schedule
        self.engine.install_failure_schedule(schedule)

    def install_corruption_schedule(
        self, schedule: Optional[CorruptionSchedule]
    ) -> None:
        """Swap the corruption schedule (installed on the live grid too)."""
        self.corruptions = schedule
        self.engine.install_corruption_schedule(schedule)

    def _recover(self, failure: RankFailure, chunk: int) -> None:
        if self.report.failures + 1 > self.MAX_FAILURES:
            raise failure
        survivors = self.n_ranks - 1
        if survivors < 1:
            # Failure budget exhausted: nothing left to reshape onto.
            raise failure
        old_shape = (self.grid.pr, self.grid.pc)
        old_ranks = self.n_ranks
        self._build(survivors)
        self.report.events.append(
            FailureEvent(
                chunk=chunk,
                rank=failure.rank,
                op=failure.op,
                collective_index=failure.collective_index,
                old_shape=old_shape,
                new_shape=(self.grid.pr, self.grid.pc),
                old_ranks=old_ranks,
                new_ranks=survivors,
            )
        )

    # -- applies --------------------------------------------------------------
    def _apply(
        self,
        V: np.ndarray,
        config: Union[str, PrecisionConfig],
        adjoint: bool,
        out: Optional[np.ndarray],
        deterministic: bool,
    ) -> np.ndarray:
        nx_in = self.nd if adjoint else self.nm
        nx_out = self.nm if adjoint else self.nd
        A = check_block(V, self.nt, nx_in, "elastic input")
        k = A.shape[2]
        ranges = chunk_ranges(k, self.max_block_k)
        result = check_out_buffer(out, (self.nt, nx_out, k), "out")
        if result is None:
            result = np.empty((self.nt, nx_out, k), dtype=np.float64)

        # Chunk-at-a-time with commit: a failure inside chunk i loses
        # only chunk i — committed columns survive the grid, uncommitted
        # ones replay on the reshaped survivors.  A detected SDC is even
        # cheaper: the flip lived in a transient buffer (committed chunks
        # and the engine's precomputed spectra were never touched), so
        # only chunk i recomputes, on the *same* grid, and under the
        # pairwise reduction the recomputed bits equal the clean run's.
        i = 0
        sdc_retries = 0
        while i < len(ranges):
            j0, j1 = ranges[i]
            apply_fn = self.engine.rmatmat if adjoint else self.engine.matmat
            try:
                chunk_out = apply_fn(
                    A[:, :, j0:j1], config=config, deterministic=deterministic
                )
            except RankFailure as failure:
                self._recover(failure, chunk=i)
                self.report.chunks_replayed += 1
                continue
            except SilentCorruption as sdc:
                if sdc.chunk is None:
                    sdc.chunk = i
                sdc_retries += 1
                self.report.corruption_events.append(
                    CorruptionEvent(
                        chunk=i,
                        check=sdc.check,
                        phase=sdc.phase,
                        rank=sdc.rank,
                        attempt=sdc_retries,
                    )
                )
                if sdc_retries > self.MAX_CORRUPTION_RETRIES:
                    raise
                self.report.chunks_recomputed += 1
                continue
            result[:, :, j0:j1] = chunk_out
            self.report.chunks_applied += 1
            sdc_retries = 0
            i += 1
        return result

    def matmat(
        self,
        M: np.ndarray,
        config: Union[str, PrecisionConfig] = "ddddd",
        out: Optional[np.ndarray] = None,
        deterministic: bool = False,
    ) -> np.ndarray:
        """``D = F M`` with transparent rank-failure recovery, in chunks
        of the constructor's ``max_block_k``.

        Identical contract to :meth:`ParallelFFTMatvec.matmat`; under
        ``reduction="pairwise"`` the result is bitwise-identical to the
        no-failure run regardless of how many scheduled failures fired
        mid-apply.
        """
        return self._apply(
            M, config, adjoint=False, out=out, deterministic=deterministic,
        )

    def rmatmat(
        self,
        D: np.ndarray,
        config: Union[str, PrecisionConfig] = "ddddd",
        out: Optional[np.ndarray] = None,
        deterministic: bool = False,
    ) -> np.ndarray:
        """``M = F* D`` with transparent rank-failure recovery, in chunks
        of the constructor's ``max_block_k``."""
        return self._apply(
            D, config, adjoint=True, out=out, deterministic=deterministic,
        )

    def matvec(
        self, m: np.ndarray, config: Union[str, PrecisionConfig] = "ddddd"
    ) -> np.ndarray:
        """Single-vector forward apply: the width-1 block, into an
        ``(Nt, Nd)`` array the caller owns."""
        out = np.empty((self.nt, self.nd))
        m2 = np.asarray(m, dtype=np.float64).reshape(self.nt, self.nm, 1)
        self.matmat(m2, config=config, out=out.reshape(self.nt, self.nd, 1))
        return out

    def rmatvec(
        self, d: np.ndarray, config: Union[str, PrecisionConfig] = "ddddd"
    ) -> np.ndarray:
        """Single-vector adjoint apply: the width-1 block, into an
        ``(Nt, Nm)`` array the caller owns."""
        out = np.empty((self.nt, self.nm))
        d2 = np.asarray(d, dtype=np.float64).reshape(self.nt, self.nd, 1)
        self.rmatmat(d2, config=config, out=out.reshape(self.nt, self.nm, 1))
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ElasticEngine({self.grid.pr}x{self.grid.pc}, "
            f"reduction={self.reduction!r}, failures={self.report.failures})"
        )
