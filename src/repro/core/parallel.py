"""SPMD-simulated multi-GPU FFTMatvec over a 2D process grid.

Rank ``(r, c)`` of a ``pr x pc`` grid owns the ``(Nd_r x Nm_c)``
sub-block of every Toeplitz block: sensors are split across grid rows,
spatial parameters across grid columns.  One F matvec then runs:

1. **pad** — broadcast each column's parameter block down the column's
   ``pr`` ranks (machine-spanning collective; in Phase 1's precision, so
   a single-precision Phase 1 halves the broadcast volume), then
   zero-pad locally;
2-4. local FFT → SBGEMV → IFFT on each rank's sub-block;
5. **unpad** — unpad locally, then *reduce* each row's partial data
   block across the row's ``pc`` contiguous ranks (tree numerics in
   Phase 5's precision — the ``eps5 * log2(pc)`` term of Eq. 6).

The adjoint swaps the roles: broadcast over rows, reduce over columns.

All ranks live in one process with genuine per-rank numerics, and every
rank carries its own simulated device: per-rank compute time is measured
on per-rank clocks, and the wall time charged between collectives is the
**max over ranks**.  One thing the host does not repeat per rank: every
rank of an input part (a grid column for F, a row for F*) receives the
same broadcast bits, so pad → FFT → reorder runs once per part, on the
part root's engine and prepared record (the *front step*,
:meth:`ParallelFFTMatvec._chunk_fronts`), and each rank then books its
own pad / FFT / reorder launches on its own device, counts its own cast
no-ops and runs Phase 3 with its own spectrum on the shared panel, then
its own back half (fast) or segment table (pairwise).  On real GPUs
those copies run side by side; here they would run one after another
on the host for nothing — simulated time, outputs, dispatch and
communicator counts are the same bits either way.  What stays still on
a rank that uses its root's panel is its own front plan's ``executions``
/ ``stage_noops``.  An armed grid (``validate=``) or one with a failure
or corruption schedule installed does not share: each rank's armed
hooks (the pad output's finite check, the FFT-stage corruption site,
the Parseval check) must see its own pad and FFT output, and the
schedule's one event counter must see each rank's FFT, Phase 3 and
IFFT in rank order, so every rank transforms the part's block inside
its own rank task, as before.  (No
rank ever reads its own receive copy: every rank of a part takes the
root's; the copies exist for payload verification and corruption flips,
and a sharing grid, which has neither, delivers the payload in place.)
The host runs a chunk the way the charge assumes it runs: its input
parts' broadcasts and front steps, its ranks, and its output parts'
reduces (with the pairwise root epilogue) each run as concurrent
groups on the host executor's thread pool
(:mod:`repro.util.executor`) when the work per rank or part is big
enough to pay (:meth:`ParallelFFTMatvec._run_groups`); a rank engine
applied inside a group keeps its own slabs inline.  Each part rides
its own grid communicator (:meth:`ProcessGrid.row_comm` /
:meth:`~ProcessGrid.col_comm`); only the widest part's charges the
timeline, and the grid arena is only entered on the calling thread —
no output bit or simulated second depends on the pool.  Balanced
partitions charge one rank's time (all ranks tie); irregular
partitions (caller-supplied ``row_ranges`` / ``col_ranges``, e.g.
:func:`repro.comm.partition.skewed_extents`) charge genuine skew — the
slowest rank gates every collective, exactly as a blocking collective
would on the real machine.

Event-timeline execution (paper Sec. 4.2.2, Figure 4)
-----------------------------------------------------
Timing rides the stream/event model of :mod:`repro.util.timing`.  The
blocked :meth:`ParallelFFTMatvec.matmat` / :meth:`~ParallelFFTMatvec.rmatmat`
run their chunks through :func:`repro.util.timing.run_chunk_schedule`,
the one definition of the *double-buffered chunk schedule* (its
docstring lists every dependency edge; the perf model replays the same
function on scalars): chunk ``i+1``'s broadcast is prefetched on the
comm stream while chunk ``i`` computes, chunk ``i``'s reduce rides
behind chunk ``i+1``'s compute.  This module supplies the callbacks
that do a chunk's broadcast, compute and reduce.

Wall time is the critical path through that dependency graph, realized
on the grid clock at the final sync: whenever a chunk's compute covers
the next chunk's broadcast, the broadcast costs nothing.  A network
model with ``overlap_efficiency < 1`` charges the exposed remainder of
every prefetched collective onto the compute stream (link contention).
``overlap=False`` (per call) feeds the same schedule one
chunk at a time — broadcast → compute → reduce per chunk, nothing to
overlap — which reproduces the pre-timeline serial charge exactly.
**Numerics are identical in both modes, bitwise**: the schedule only
decides what time costs, never what is computed.

A third **host stream** fuses the dense-operator-assembly host routines
(:class:`~repro.util.timing.HostModel` — generate inputs, save results)
directly into the chunk schedule: constructed with ``host=...``, each
chunk's generate gates its broadcast and each save waits on its reduce,
so host, device and network run fully concurrently and the wall is the
critical path through all three streams.  With ``overlap=False`` the
chunks run one at a time, so each is the serial chain generate →
broadcast → compute → reduce → save.  ``host=None`` (default) charges
no host work at all; such an engine's wall plus ``k *
host.per_vector`` is the two-stream-plus-serial-host charge the
three-stream gain is measured against
(:func:`repro.perf.phase_model.overlapped_chunk_schedule`'s
``two_stream_host``).

Deterministic reduction (``reduction="pairwise"``)
--------------------------------------------------
``reduction="pairwise"`` makes the *entire distributed contraction* one
fixed binary tree over global parameter (sensor, for the adjoint)
indices: each rank computes Phase-3 partial panels for the canonical
tree segments of its slice (:mod:`repro.util.pairwise`), the grid
reduce merges segments in the frequency domain
(:meth:`repro.comm.simcomm.SimCommunicator.reduce_segments`), and the
output part's root rank runs the IFFT/unpad epilogue once on the merged
panel.  Because every addition — intra-rank and inter-rank — is an edge
of one tree indexed by *global element position*, the result is
**bitwise identical for any** ``row_ranges`` / ``col_ranges``
partition (single-element parts included), any chunk width, and
equal to the single-device pairwise engine.  The fast mode's per-rank
IFFT + rank-indexed tree reduce is the throughput path; pairwise pays a
modeled kernel tax and a larger (complex, per-segment) reduce payload,
benchmarked in ``BENCH_determinism.json``.

Blocked collectives
-------------------
Each chunk of at most ``max_block_k`` columns pays **one**
column-broadcast and **one** row-reduce (per grid column/row) instead of
one per vector, so the collective count is ``ceil(k / max_block_k)``.
The broadcast payload is the whole ``(Nt, nm_c, k_c)`` parameter block
in Phase 1's precision — the volume term of the tree cost scales by
``k_c``, the ``log2`` latency trees are paid once per chunk — and the
Phase-5 tree-reduce sums ``(Nt, nd_r, k_c)`` partial blocks elementwise,
so the ``eps5 * log2(pc)`` accumulation term of Eq. 6 applies per
column.  Per-rank compute routes through ``FFTMatvec``'s one pipeline,
the blocked one (a single engine's vector apply is its width-1 block).
A vector apply (:meth:`ParallelFFTMatvec.matvec` /
:meth:`~ParallelFFTMatvec.rmatvec`) *is* this loop — one width-1 chunk
on the serial schedule with ``deterministic=True``, which swaps each
rank's Phase-3 GEMM for per-column batched GEMVs (the serving
coalescer's mode).  Wider chunks match it to rounding (GEMM vs GEMV
column-accumulation order) — or *bitwise* for every column when they
run ``deterministic`` too.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend import Backend, resolve_backend
from repro.comm.grid import ProcessGrid
from repro.comm.partition import check_extents
from repro.core.matvec import FFTMatvec
from repro.core.precision import PrecisionConfig
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.device import SimulatedDevice
from repro.gpu.specs import GPUSpec, get_gpu
from repro.util.blocking import (
    check_block,
    check_out_buffer,
    chunk_ranges,
    validate_max_block_k,
)
from repro.util.dtypes import Precision, real_dtype
from repro.util.executor import run_groups
from repro.util.timing import HostModel, Stream, TimingReport, run_chunk_schedule
from repro.util.validation import ReproError
from repro.util.workspace import Workspace

__all__ = ["ParallelFFTMatvec"]

_PHASES = ("pad", "fft", "sbgemv", "ifft", "unpad")
# Phases a grid-level timing report may carry: the five device phases
# plus the host stream's generate/save work.
_REPORT_PHASES = _PHASES + ("host",)

# A chunk's ranks run concurrently only from this many elements per
# rank-chunk (in + out block, Nt * kc * (nd_r + nm_c)); below, a rank is
# mostly Python and two threads queue on the GIL: 2.1x slower at 4k, 1.5x
# at 15k, even at 39k, 0.9x at 41k, 0.7x from 52k (docs/ARCHITECTURE.md).
# A chunk's input parts (broadcast, shared front) and output parts use the
# same gate on Nt * kc * extent.
_CONCURRENT_MIN_ELEMS = 40_000


class ParallelFFTMatvec:
    """Distributed FFTMatvec on a simulated ``pr x pc`` GPU grid.

    Parameters
    ----------
    matrix:
        The *global* block-triangular Toeplitz matrix (or kernel blocks).
    grid:
        Process grid; its clock accumulates wall time (compute max +
        communication critical path).
    spec:
        GPU architecture for the per-rank compute model: a
        :class:`GPUSpec`, a registry name, or None (no timing).  Every
        rank then carries its own device of that spec on its own clock;
        the wall charge between collectives is the max over ranks, so an
        irregular partition charges genuine skew.
        :meth:`rank_compute_report` harvests the per-rank clocks.
    max_block_k:
        Chunk width of the blocked :meth:`matmat` / :meth:`rmatmat`
        path (None = all k columns in one chunk), set here only: to
        compare widths, build one engine per width.  Bounds per-rank
        workspace; each chunk costs one broadcast + one reduce.
    reduction:
        ``"fast"`` (default) — vendor accumulation order per rank, tree
        reduce indexed by rank.  ``"pairwise"`` — the fixed-tree
        deterministic mode: results are bitwise identical for any grid
        partition and any ``max_block_k``, and match the single-device
        pairwise engine (see the module docstring).
    host:
        Optional :class:`~repro.util.timing.HostModel` fusing the
        dense-assembly host routines into the blocked schedule: each
        chunk charges ``k_chunk * gen_time`` before (and gating) its
        broadcast and ``k_chunk * save_time`` after its reduce, on a
        third *host* stream (fully concurrent with comm + compute under
        the overlapped schedule; a serial apply, ``overlap=False``,
        runs each chunk's generate → broadcast → compute → reduce →
        save back to back).  ``None`` charges no host work.
    row_ranges, col_ranges:
        Optional explicit 1-D partitions of the sensor / parameter
        extents (lists of contiguous ``(start, stop)``, one per grid
        row / column).  Defaults to the balanced ceil-based split; pass
        :func:`repro.comm.partition.skewed_extents` to study skew.
    workspace:
        ``None`` or ``True`` (anything else raises): every rank engine
        owns its :class:`~repro.util.workspace.Workspace` arena
        (registered with the rank device's allocator) and the grid one
        more, for the chunk loop's ping-pong payload and receive buffers.
    backend:
        Array backend every rank engine and comm payload runs on — a
        :class:`~repro.backend.Backend` instance, a registry name
        (``"numpy"``/``"torch"``), or None for the
        ``REPRO_BACKEND`` / ``auto`` fallback chain.  Gathered results
        are always host float64 regardless of backend.
    validate:
        SDC defense checks, forwarded to every rank engine (see
        :class:`~repro.core.matvec.FFTMatvec`): ``None`` (off) or
        ``"abft"`` (checksum/energy verification plus finite checks of
        the pad and unpad outputs); any other value raises.  ``"abft"``
        also switches on receive-side payload digests on every grid
        communicator, so collective payloads are covered end to end.
    """

    def __init__(
        self,
        matrix: Union[BlockTriangularToeplitz, np.ndarray],
        grid: ProcessGrid,
        spec: Union[None, str, GPUSpec] = None,
        max_block_k: Optional[int] = None,
        reduction: str = "fast",
        row_ranges: Optional[Sequence[Tuple[int, int]]] = None,
        col_ranges: Optional[Sequence[Tuple[int, int]]] = None,
        workspace: Union[None, bool] = None,
        backend: Union[None, str, Backend] = None,
        host: Optional[HostModel] = None,
        validate: Optional[str] = None,
    ) -> None:
        if reduction not in ("fast", "pairwise"):
            raise ReproError(
                f"reduction must be 'fast' or 'pairwise', got {reduction!r}"
            )
        self.reduction = reduction
        if host is not None and not isinstance(host, HostModel):
            raise ReproError(
                f"host must be a HostModel (or None), got {type(host).__name__}"
            )
        self.host = host
        self.backend = resolve_backend(backend)
        self.matrix = (
            matrix
            if isinstance(matrix, BlockTriangularToeplitz)
            else BlockTriangularToeplitz(np.asarray(matrix))
        )
        self.grid = grid
        self.nt = self.matrix.nt
        self.nd = self.matrix.nd
        self.nm = self.matrix.nm
        if grid.pr > self.nd:
            raise ReproError(
                f"grid has {grid.pr} rows but only {self.nd} sensors to split"
            )
        if grid.pc > self.nm:
            raise ReproError(
                f"grid has {grid.pc} columns but only {self.nm} parameters to split"
            )

        self._row_ranges = (
            check_extents(row_ranges, self.nd, grid.pr, "row_ranges")
            if row_ranges is not None
            else grid.split_extent(self.nd, grid.pr)
        )
        self._col_ranges = (
            check_extents(col_ranges, self.nm, grid.pc, "col_ranges")
            if col_ranges is not None
            else grid.split_extent(self.nm, grid.pc)
        )

        # Per-rank devices on private clocks: each rank's compute time is
        # measured independently, and collectives take the max (ranks run
        # concurrently; the slowest gates the blocking collective).
        if spec is not None and not isinstance(spec, (GPUSpec, str)):
            raise ReproError(
                f"spec must be a GPUSpec, a registry name or None, got {type(spec).__name__}"
            )
        self.spec = get_gpu(spec) if isinstance(spec, str) else spec
        self.devices: Dict[Tuple[int, int], Optional[SimulatedDevice]] = {}
        self.engines: Dict[Tuple[int, int], FFTMatvec] = {}
        if workspace not in (None, True):  # an arena per rank engine, not one
            raise ReproError(f"workspace must be None or True, got {workspace!r}")
        for r in range(grid.pr):
            r0, r1 = self._row_ranges[r]
            for c in range(grid.pc):
                c0, c1 = self._col_ranges[c]
                local = self.matrix.blocks[:, r0:r1, c0:c1]
                dev = SimulatedDevice(self.spec) if self.spec is not None else None
                self.devices[(r, c)] = dev
                engine = FFTMatvec(
                    BlockTriangularToeplitz(local),
                    device=dev,
                    backend=self.backend,
                    reduction=reduction,
                    validate=validate,
                )
                engine.rank_label = grid.rank_of(r, c)
                self.engines[(r, c)] = engine
        self.validate = validate
        if validate:
            # Any defense mode extends to the wire: verify collective
            # payload digests at every receive, grid-wide.
            grid.set_payload_verification(True)
        self.workspace = Workspace(name="grid", backend=self.backend)  # chunk-loop staging
        self.device = self.devices[(0, 0)]
        if spec is not None:
            # One-time spectrum setup happens on every rank concurrently;
            # the grid clock pays the slowest rank's setup once.
            setup = max(
                d.clock.phase_total("setup") for d in self.devices.values()
            )
            with grid.clock.phase("setup"):
                grid.clock.advance(setup)

        # All columns' (rows') collectives run concurrently; the one with
        # the widest payload gates the wall, so that index is the timed
        # one.  Balanced ceil-splits put the extra elements first, making
        # this index 0 — the historical choice — but caller-supplied
        # irregular partitions may put the big part anywhere.
        self._timed_row_idx = max(
            range(grid.pr), key=lambda r: self._row_ranges[r][1] - self._row_ranges[r][0]
        )
        self._timed_col_idx = max(
            range(grid.pc), key=lambda c: self._col_ranges[c][1] - self._col_ranges[c][0]
        )
        # Each row (column) part rides the grid's own row (column)
        # communicator, so concurrent parts never share one; only the
        # timed ones are handed the chunk schedule's stream (the others'
        # collectives charge nothing: the timed one covers them).
        self._row_comms = [grid.row_comm(r) for r in range(grid.pr)]
        self._col_comms = [grid.col_comm(c) for c in range(grid.pc)]
        self._timed = (
            self._row_comms[self._timed_row_idx], self._col_comms[self._timed_col_idx]
        )
        # Phase 1's arena buffers, resolved once per (direction, slot,
        # chunk width, payload dtype) on the calling thread — part tasks
        # never enter the arena.  They die with it.
        self._staged: Dict[tuple, list] = {}
        self.workspace.release_hooks.append(self._staged.clear)
        self._ranks = list(self.engines)
        # Fast Phase 5 sums straight into the host output at float64.
        self._reduce_into_out = self.backend.name == "numpy"
        # Picked once per engine: what each direction means on this grid
        # and the fast or pairwise chunk compute / reduce pair — as plain
        # functions called with ``self``: a bound method kept on its own
        # instance is a reference cycle, and a dropped engine (an
        # ``ElasticEngine`` rebuild, a cache eviction) would hold its
        # arenas until the cycle collector's next pass.
        self._dir = {adjoint: self._direction(adjoint) for adjoint in (False, True)}
        cls = ParallelFFTMatvec
        self._chunk_compute, self._chunk_reduce = (
            (cls._chunk_compute_pairwise, cls._chunk_reduce_pairwise)
            if reduction == "pairwise"
            else (cls._chunk_compute_fast, cls._chunk_reduce_fast)
        )
        self.max_block_k = validate_max_block_k(max_block_k)
        self.last_timing: Optional[TimingReport] = None
        self.matvec_count = 0  # logical operator actions (k per block)
        self.matmat_count = 0  # blocked pipeline passes (one per chunk)

    # -- fault injection ------------------------------------------------------
    def install_failure_schedule(self, schedule) -> None:
        """Attach a :class:`~repro.comm.fault.FailureSchedule` to every
        row and column communicator of the grid, so the schedule's
        collective counter advances through the full deterministic SPMD
        sequence.  Pass ``None`` to disarm.
        """
        self.grid.install_failure_schedule(schedule)

    def install_corruption_schedule(self, schedule) -> None:
        """Attach a :class:`~repro.comm.fault.CorruptionSchedule` to the
        whole engine: every grid communicator counts its collectives as
        corruption events, and every rank engine counts its
        FFT/SBGEMM/IFFT device stages — one shared deterministic event
        sequence, exactly like :meth:`install_failure_schedule`.
        Installing also arms payload digests and the per-engine abft
        checks, so every scheduled flip has a detector downstream.  Pass
        ``None`` to disarm injection (checks stay as configured by
        ``validate=``).
        """
        self.grid.install_corruption_schedule(schedule)
        if self.validate:
            # Disarming switched the digests off with the schedule.
            self.grid.set_payload_verification(True)
        for (r, c), engine in self.engines.items():
            engine.install_corruption_schedule(
                schedule, rank=self.grid.rank_of(r, c)
            )

    def _injecting(self) -> bool:
        """Whether a failure or corruption schedule is installed on any
        communicator or rank engine this engine drives: one shared event
        counter, whose sequence only an inline run keeps."""
        return any(
            c.failures is not None or c.corruption is not None
            for c in self._row_comms + self._col_comms
        ) or any(e._corruption is not None for e in self.engines.values())

    # -- partition introspection ---------------------------------------------
    @property
    def row_ranges(self) -> List[Tuple[int, int]]:
        """The sensor-axis partition: one ``(start, stop)`` per grid row."""
        return list(self._row_ranges)

    @property
    def col_ranges(self) -> List[Tuple[int, int]]:
        """The parameter-axis partition: one ``(start, stop)`` per grid column."""
        return list(self._col_ranges)

    def geometry_key(self) -> Tuple:
        """Stable, hashable fingerprint of the distributed geometry.

        Extends :meth:`FFTMatvec.geometry_key` with the grid extents:
        process-grid shape and the exact row/column partitions (two
        engines with equal keys run identical per-rank shapes and
        collectives).  The reduction mode is part of the key — a
        fast-mode and a pairwise-mode grid must never be conflated (the
        serving cache keys engines and coalesced batches on this).
        """
        return (
            "ParallelFFTMatvec",
            self.nt,
            self.nd,
            self.nm,
            self.backend.name,
            (self.grid.pr, self.grid.pc),
            tuple(self._row_ranges),
            tuple(self._col_ranges),
            self.spec.name if self.spec is not None else None,
            self.reduction,
        )

    # -- measurement hooks ---------------------------------------------------
    def rank_compute_report(self) -> Dict[Tuple[int, int], float]:
        """Per-rank compute seconds harvested from the private clocks.

        Returns ``{(row, col): seconds}`` — the cumulative five-phase
        compute time each rank's own device has charged (setup excluded).
        On an even split all ranks tie; an irregular partition shows
        genuine spread, and the spread *is* the skew the wall pays at
        every collective.
        """
        if any(d is None for d in self.devices.values()):
            raise ReproError(
                "rank_compute_report requires per-rank devices — construct "
                "ParallelFFTMatvec with spec=... to measure compute"
            )
        return {
            rc: sum(dev.clock.phase_total(p) for p in _PHASES)
            for rc, dev in self.devices.items()
        }

    def workspace_report(self) -> Dict[str, object]:
        """Arena footprint across the grid.

        Returns the grid-level arena's size plus, per rank, the engine
        arena's bytes/buffers and the rank DeviceAllocator's peak — the
        modeled persistent device footprint of the allocation-free hot
        path, a first-class capacity-planning field.
        """
        ranks = {
            f"{r},{c}": {
                "arena_bytes": e.workspace.nbytes,
                "arena_buffers": e.workspace.buffer_count,
                "registered_bytes": e.workspace.registered_bytes,
                "allocator_peak_bytes": e.device.allocator.peak if e.device is not None else None,
            }
            for (r, c), e in self.engines.items()
        }
        rank_total = sum(e.workspace.nbytes for e in self.engines.values())
        return {
            "grid_arena_bytes": self.workspace.nbytes,
            "grid_arena_buffers": self.workspace.buffer_count,
            "rank_arenas": ranks,
            "total_arena_bytes": self.workspace.nbytes + rank_total,
        }

    # -- helpers ------------------------------------------------------------
    def _run_groups(self, task: Callable, items: Sequence, elems: int, *args) -> list:
        """``[task(item, *args) for item in items]`` through the host
        executor (:func:`~repro.util.executor.run_groups`), one item per
        group at most.  The items — a chunk's ranks, input parts (their
        broadcasts or their shared fronts) or output parts — share
        nothing they write (own engine, arena, device, clock,
        communicator); they stay inline, in item order, below
        ``_CONCURRENT_MIN_ELEMS`` elements per item and while a failure
        or corruption schedule is installed (one event counter for the
        whole engine)."""
        concurrent = elems >= _CONCURRENT_MIN_ELEMS and not self._injecting()
        return run_groups(task, items, len(items) if concurrent else 1, *args)

    def _rank_compute(
        self, run_rank: Callable[[int, int, FFTMatvec], np.ndarray], kc: int
    ) -> Tuple[Dict[Tuple[int, int], np.ndarray], Dict[str, float]]:
        """Run every rank's local pipeline; return partials + max-rank time.

        Each rank charges its private clock; the returned phase breakdown
        is the *slowest* rank's (per-rank skew — on a balanced partition
        every rank ties and this is exactly one rank's time, matching the
        old single-charge model bitwise).  One task per rank through
        :meth:`_run_groups`, gated on a rank-chunk's ``kc`` columns of in
        + out block.
        """
        ranks = self._ranks
        elems = kc * self.nt * (self.nd // self.grid.pr + self.nm // self.grid.pc)
        done = self._run_groups(self._run_rank, ranks, elems, run_rank)
        partials = {rc: res for rc, (res, _) in zip(ranks, done)}
        return partials, self._slowest(deltas for _, deltas in done)

    def _run_rank(self, rc: Tuple[int, int], run_rank: Callable):
        """One rank's pipeline call and what it charged its private clock."""
        dev = self.devices[rc]
        if dev is None:
            return run_rank(*rc, self.engines[rc]), None
        with dev.clock.tally() as seconds:
            res = run_rank(*rc, self.engines[rc])
        return res, {p: seconds.get(p, 0.0) for p in _PHASES}

    @staticmethod
    def _slowest(deltas) -> Dict[str, float]:
        """Phase breakdown of the rank that charged most (first on ties)."""
        timed = (d for d in deltas if d is not None)
        return max(timed, key=lambda d: sum(d.values()), default={})

    @staticmethod
    def _charge_compute(phases: Dict[str, float], stream: Stream) -> None:
        """Charge a per-phase compute breakdown onto a stream."""
        for p in _PHASES:
            t = phases.get(p, 0.0)
            if t > 0:
                stream.charge(t, phase=p)

    # -- vector applies -------------------------------------------------------
    def matvec(
        self, m: np.ndarray, config: Union[str, PrecisionConfig] = "ddddd"
    ) -> np.ndarray:
        """Compute ``d = F m`` across the grid; returns the global (Nt, Nd).

        A single matvec cannot overlap (phases 2–4 depend on the Phase-1
        broadcast), so the serial schedule applies; compute is charged as
        the max over ranks.  The vector rides the chunk loop as a lone
        width-1 chunk: in fast mode every rank's Phase 3 is the
        per-column GEMV (``deterministic``), in pairwise mode the same
        fixed contraction tree a wide panel's columns see — which is
        what makes blocked == looped bitwise.
        """
        return self._apply_vector(self.matrix.check_input(m), config, adjoint=False)

    def rmatvec(
        self, d: np.ndarray, config: Union[str, PrecisionConfig] = "ddddd"
    ) -> np.ndarray:
        """Compute ``m = F* d`` across the grid; returns the global (Nt, Nm)."""
        return self._apply_vector(self.matrix.check_output(d), config, adjoint=True)

    def _apply_vector(self, v: np.ndarray, config, adjoint: bool) -> np.ndarray:
        """Single-chunk, serial-schedule block apply of one vector."""
        out = np.empty((self.nt, self.nm if adjoint else self.nd))
        self._matmat_impl(
            v[:, :, None], config, adjoint=adjoint, overlap=False,
            out=out.reshape(out.shape + (1,)), deterministic=True,
        )
        # The lone chunk is one logical action (matvec_count), not a
        # blocked pipeline pass.
        self.matmat_count -= 1
        return out

    # -- blocked multi-RHS path across the grid ------------------------------
    def _direction(self, adjoint: bool) -> SimpleNamespace:
        """What a direction means on this grid, derived once per engine:
        F broadcasts each parameter part down its grid column and reduces
        each sensor part across its grid row; F* swaps the roles.

        ``inputs`` lists, per input part, its index, extent and
        communicator; ``roots``, per input part, the rank its broadcast
        leaves from (the part root); ``outputs``, per output part, its extent,
        communicator and the contributing ranks in reduce order (the
        first is the part's root); ``axis`` says which of a rank's
        ``(r, c)`` names its input part, ``n_global`` is the length of
        the contraction axis, ``in_width`` / ``out_width`` the widest
        part's extent.  Every part rides its own grid row or column
        communicator; only the widest part's (``_timed``) charges the
        chunk schedule's stream.
        """
        pr, pc = self.grid.pr, self.grid.pc
        rows = [
            (r, r0, r1, comm)
            for r, ((r0, r1), comm) in enumerate(zip(self._row_ranges, self._row_comms))
        ]
        cols = [
            (c, c0, c1, comm)
            for c, ((c0, c1), comm) in enumerate(zip(self._col_ranges, self._col_comms))
        ]
        if adjoint:
            outputs = [(c0, c1, comm, [(r, c) for r in range(pr)]) for c, c0, c1, comm in cols]
        else:
            outputs = [(r0, r1, comm, [(r, c) for c in range(pc)]) for r, r0, r1, comm in rows]
        inputs = rows if adjoint else cols
        return SimpleNamespace(
            adjoint=adjoint,
            axis=0 if adjoint else 1,
            tag="r" if adjoint else "c",
            n_global=self.nd if adjoint else self.nm,
            inputs=inputs,
            roots=[(i, 0) if adjoint else (0, i) for i, _, _, _ in inputs],
            outputs=outputs,
            in_width=max(i1 - i0 for _, i0, i1, _ in inputs),
            out_width=max(o1 - o0 for o0, o1, _, _ in outputs),
        )

    def _chunk_bcast(
        self,
        chunk: np.ndarray,
        cfg: PrecisionConfig,
        d: SimpleNamespace,
        stream: Stream,
        slot: int,
        share: bool,
    ) -> List[np.ndarray]:
        """Phase 1 communication for one chunk: ONE batched broadcast per
        grid column (row for the adjoint) carries the whole
        ``(Nt, n_local, kc)`` block in Phase 1's precision — volume scales
        by kc, the log2 latency tree is paid once for the chunk.  One
        task per input part (:meth:`_bcast_part`) through
        :meth:`_run_groups`.

        Payload and receive buffers are persistent arena buffers keyed
        by ``slot`` — the chunk loop ping-pongs between two slots
        (``i % 2``) so the prefetched chunk ``i + 1`` never shares
        buffers with the chunk ``i`` payload still in flight, while
        chunk ``i + 2`` reuses chunk ``i``'s.  Returns, per column (row),
        the block every rank of it takes — the root's entry of the
        broadcast, at Phase 1's precision (with ``share`` only the part
        root's front reads it, :meth:`_chunk_fronts`); the modeled time
        is charged onto ``stream``.
        """
        kc, dtype = chunk.shape[2], real_dtype(cfg.pad)
        parts = self._staged.get((d.tag, slot, kc, dtype, share))
        if parts is None:
            parts = self._stage(d, slot, kc, dtype, share)
        return self._run_groups(
            self._bcast_part, parts, self.nt * kc * d.in_width, chunk, stream
        )

    def _stage(self, d: SimpleNamespace, slot: int, kc: int, dtype, share: bool) -> list:
        """Resolve one slot's Phase-1 arena buffers, per input part: the
        payload and every non-root rank's receive buffer.  No rank reads
        its receive copy — every rank of a part takes the root's entry
        (the payload, or its flipped copy when a corruption aims at the
        root) — so only payload verification and corruption flips touch
        them; with ``share`` (nothing verifies or flips) they are the
        payload itself, delivered in place without a copy."""
        ws, parts = self.workspace, []
        for i, i0, i1, cobj in d.inputs:
            shape, name = (self.nt, i1 - i0, kc), f"[{slot}]/{d.tag}{i}"
            payload = ws.buffer(f"pay{name}", shape, dtype)
            recv = [None] + [
                payload if share else ws.buffer(f"recv{name}/r{rank}", shape, dtype)
                for rank in range(1, cobj.size)
            ]
            parts.append((i0, i1, cobj, payload, recv))
        self._staged[(d.tag, slot, kc, dtype, share)] = parts
        return parts

    def _bcast_part(self, part: tuple, chunk: np.ndarray, stream: Stream) -> np.ndarray:
        """One input part's Phase 1: stage and broadcast.  Returns the
        root's copy at the pad precision: the pad rounds nothing more
        (its input's tier is its own), so the rank engines take it as
        it is."""
        i0, i1, cobj, payload, recv = part
        # The strided block, copied-with-cast into a contiguous payload.
        payload[...] = self.backend.asarray(chunk[:, i0:i1, :])
        with cobj.on_stream(stream if cobj in self._timed else None):
            return cobj.bcast(payload, root=0, phase="pad", backend=self.backend, out=recv)[0]

    def _chunk_fronts(
        self,
        in_blocks: List[np.ndarray],
        cfg: PrecisionConfig,
        d: SimpleNamespace,
        kernel: Callable,
        share: bool,
    ) -> list:
        """The front step of one chunk's compute: per input part, the
        ``(n_freq, n_local, kc)`` panel every rank of the part hands its
        own front (see the module docstring) — pad → FFT → reorder once
        per part on the part root's engine and record
        (:meth:`FFTMatvec._pipeline_block_transform`), one task per part
        (:meth:`_front_part`) through :meth:`_run_groups`.  Without
        ``share`` (an armed or injecting grid) every entry is ``None``
        and each rank transforms its input inside its own rank task."""
        if not share:
            return [None] * len(in_blocks)
        kc = in_blocks[0].shape[2]
        return self._run_groups(
            self._front_part, d.roots, self.nt * kc * d.in_width, in_blocks, cfg, d, kernel
        )

    def _front_part(
        self, root: Tuple[int, int], in_blocks: List[np.ndarray], cfg: PrecisionConfig,
        d: SimpleNamespace, kernel: Callable,
    ) -> np.ndarray:
        """One input part's shared pad → FFT → reorder, on its root."""
        return self.engines[root]._pipeline_block_transform(
            in_blocks[root[d.axis]], cfg, d.adjoint, kernel
        )

    def _chunk_compute_fast(
        self,
        in_blocks: List[np.ndarray],
        cfg: PrecisionConfig,
        d: SimpleNamespace,
        stream: Stream,
        deterministic: bool,
        share: bool,
    ) -> Dict[Tuple[int, int], np.ndarray]:
        """Per-rank blocked pipelines for one chunk: one pad / batched FFT
        / SBGEMM / IFFT / unpad pass on every rank (pad / FFT shared by
        the ranks of an input part, :meth:`_chunk_fronts`); the max-rank
        time is charged onto ``stream``.  ``deterministic`` selects each
        rank's per-column-GEMV Phase 3."""
        kc = in_blocks[0].shape[2]
        kernel = self.engines[self._ranks[0]]._block_kernel(kc, deterministic)
        panels = self._chunk_fronts(in_blocks, cfg, d, kernel, share)
        partials, compute = self._rank_compute(
            lambda r, c, engine: engine._pipeline_block(
                in_blocks[(r, c)[d.axis]],
                cfg,
                adjoint=d.adjoint,
                detach=False,
                deterministic=deterministic,
                panel=panels[(r, c)[d.axis]],
            ),
            kc,
        )
        self._charge_compute(compute, stream)
        return partials

    def _chunk_reduce_fast(
        self,
        partials: Dict[Tuple[int, int], np.ndarray],
        out: np.ndarray,
        cfg: PrecisionConfig,
        d: SimpleNamespace,
        stream: Stream,
    ) -> None:
        """Phase 5 communication for one chunk: ONE batched tree-reduce
        per grid row (column for the adjoint); the eps5 * log2
        accumulation applies elementwise to every column of the block.
        One task per output part (:meth:`_reduce_part_fast`) through
        :meth:`_run_groups`."""
        self._run_groups(
            self._reduce_part_fast, d.outputs, self.nt * out.shape[2] * d.out_width,
            partials, out, cfg, stream,
        )

    def _reduce_part_fast(
        self, part: tuple, partials: dict, out: np.ndarray, cfg: PrecisionConfig, stream: Stream
    ) -> None:
        """One output part's fast Phase 5: cast, then tree-reduce straight
        into the caller's ``(Nt, ny, kc)`` output view when the reduce
        runs at its float64 (else through the reduce's own result)."""
        o0, o1, cobj, ranks = part
        be = self.backend
        contribs = [be.cast(partials[rc], cfg.unpad) for rc in ranks]
        into = out[:, o0:o1, :] if self._reduce_into_out and cfg.unpad is Precision.DOUBLE else None
        with cobj.on_stream(stream if cobj in self._timed else None):
            reduced = cobj.reduce(
                contribs, root=0, precision=cfg.unpad, phase="unpad", backend=be, out=into
            )
        if into is None:
            out[:, o0:o1, :] = be.from_device(reduced)

    def _chunk_compute_pairwise(
        self,
        in_blocks: List[np.ndarray],
        cfg: PrecisionConfig,
        d: SimpleNamespace,
        stream: Stream,
        deterministic: bool,
        share: bool,
    ) -> Dict[Tuple[int, int], Dict[Tuple[int, int], np.ndarray]]:
        """Pairwise front half for one chunk: every rank runs pad / FFT /
        reorder (shared by the ranks of an input part,
        :meth:`_chunk_fronts`) and computes Phase-3 partial panels for
        the canonical tree segments of its *global* contraction range.
        No IFFT/unpad here — the epilogue runs once per output part
        after the frequency-domain segment reduce.  Max-rank time is
        charged onto ``stream``.  ``deterministic`` is redundant here
        (the fixed tree already is) and ignored."""
        panels = self._chunk_fronts(
            in_blocks, cfg, d, FFTMatvec._run_sbgemm_pairwise_segments, share
        )
        tables, compute = self._rank_compute(
            lambda r, c, engine: engine._pipeline_block_pairwise_segments(
                in_blocks[(r, c)[d.axis]],
                cfg,
                adjoint=d.adjoint,
                start=d.inputs[(r, c)[d.axis]][1],
                n_global=d.n_global,
                panel=panels[(r, c)[d.axis]],
            ),
            in_blocks[0].shape[2],
        )
        self._charge_compute(compute, stream)
        return tables

    def _chunk_reduce_pairwise(
        self,
        tables: Dict[Tuple[int, int], Dict[Tuple[int, int], np.ndarray]],
        out: np.ndarray,
        cfg: PrecisionConfig,
        d: SimpleNamespace,
        stream: Stream,
    ) -> None:
        """Pairwise Phase 5 for one chunk: ONE frequency-domain segment
        reduce per grid row (column for the adjoint) merges every rank's
        canonical-segment panels through the fixed tree, then the output
        part's root rank runs the IFFT/unpad epilogue once on the merged
        panel.  All root epilogues run concurrently on distinct devices,
        so the max is charged (onto ``stream``, where it overlaps the
        next chunk's front compute like a second device queue) — and the
        host runs them so: one task per output part, its reduce then its
        epilogue (:meth:`_reduce_part_pairwise`), through
        :meth:`_run_groups`.  Inline, that keeps the event order
        ``reduce(0), epilogue(0), reduce(1), epilogue(1)``."""
        finished = self._run_groups(
            self._reduce_part_pairwise, d.outputs, self.nt * out.shape[2] * d.out_width,
            tables, out, cfg, d, stream,
        )
        self._charge_compute(self._slowest(finished), stream)

    def _reduce_part_pairwise(
        self,
        part: tuple,
        tables: dict,
        out: np.ndarray,
        cfg: PrecisionConfig,
        d: SimpleNamespace,
        stream: Stream,
    ) -> Optional[Dict[str, float]]:
        """One output part's pairwise Phase 5: segment reduce, then the
        root's epilogue; returns what the epilogue charged the root."""
        o0, o1, cobj, ranks = part
        with cobj.on_stream(stream if cobj in self._timed else None):
            merged = cobj.reduce_segments(
                [tables[rc] for rc in ranks], d.n_global, root=0, phase="unpad",
                backend=self.backend,
            )
        out[:, o0:o1, :], deltas = self._run_rank(
            ranks[0],
            lambda r, c, engine: engine._pipeline_block_finish(
                merged, cfg, adjoint=d.adjoint
            ),
        )
        return deltas

    def _matmat_impl(
        self,
        V: np.ndarray,
        config: Union[str, PrecisionConfig],
        adjoint: bool,
        overlap: Optional[bool],
        out: Optional[np.ndarray] = None,
        deterministic: bool = False,
    ) -> np.ndarray:
        cfg = PrecisionConfig.parse(config)
        nx = self.nd if adjoint else self.nm
        VV = check_block(V, self.nt, nx, "data" if adjoint else "parameter")
        k = VV.shape[2]
        ranges = chunk_ranges(k, self.max_block_k)
        use_overlap = True if overlap is None else bool(overlap)
        host = self.host

        ny = self.nm if adjoint else self.nd
        out = check_out_buffer(out, (self.nt, ny, k))
        if out is None:
            out = np.empty((self.nt, ny, k))

        # The schedule's callbacks: chunk i's broadcast copies wait in
        # ``staged`` for its compute, whose partials wait for its reduce.
        d = self._dir[adjoint]
        staged: Dict[int, dict] = {}
        # Every receive copy is bitwise the payload and nothing inspects a
        # rank's own one unless checks are armed or a schedule injects.
        share = not self.validate and not self._injecting()

        def bcast(i: int, stream: Stream) -> float:
            t0, (j0, j1) = stream.cursor, ranges[i]
            # Into the other ping-pong slot: chunk i-1's payload buffers
            # stay live while chunk i's broadcast is in flight, exactly
            # as on the real machine.
            staged[i] = self._chunk_bcast(VV[:, :, j0:j1], cfg, d, stream, i % 2, share)
            return stream.cursor - t0

        def compute(i: int, stream: Stream) -> None:
            staged[i] = self._chunk_compute(self, staged[i], cfg, d, stream, deterministic, share)

        def reduce(i: int, stream: Stream) -> float:
            t0, (j0, j1) = stream.cursor, ranges[i]
            self._chunk_reduce(self, staged.pop(i), out[:, :, j0:j1], cfg, d, stream)
            return stream.cursor - t0

        # The host generates chunk i before its broadcast and saves it
        # after its reduce, on the schedule's third stream.
        host_costs = {}
        if host is not None:
            host_costs["gen"] = [(j1 - j0) * host.gen_time for j0, j1 in ranges]
            host_costs["save"] = [(j1 - j0) * host.save_time for j0, j1 in ranges]
        exposed = self.grid.net.exposed_fraction()
        n = len(ranges)
        wall = 0.0
        with self.workspace, self.grid.clock.tally() as seconds:
            # overlap=False is the same schedule fed one chunk at a time.
            for chunks in [range(n)] if use_overlap else [(i,) for i in range(n)]:
                wall += run_chunk_schedule(
                    self.grid.clock, chunks, bcast, compute, reduce, exposed, **host_costs
                )
        name = "F*" if adjoint else "F"
        sched = "overlap" if use_overlap else "serial"
        self.last_timing = TimingReport(
            phases={p: seconds[p] for p in _REPORT_PHASES if seconds.get(p, 0.0) > 0},
            label=f"{cfg} {name}[k={k}/{len(ranges)} chunk(s), {sched}"
            f"{'+host' if host is not None else ''}"
            f"{', det' if deterministic else ''}"
            f"{', pairwise' if self.reduction == 'pairwise' else ''}] "
            f"({self.grid.pr}x{self.grid.pc})",
            wall=wall,
        )
        self.matvec_count += k
        self.matmat_count += len(ranges)
        return out

    def matmat(
        self,
        M: np.ndarray,
        config: Union[str, PrecisionConfig] = "ddddd",
        overlap: Optional[bool] = None,
        out: Optional[np.ndarray] = None,
        deterministic: bool = False,
    ) -> np.ndarray:
        """Compute ``D = F M`` for k parameter vectors across the grid.

        ``M`` is ``(Nt, Nm, k)`` (or scipy-style ``(Nt*Nm, k)``); the
        result is ``(Nt, Nd, k)``.  Each chunk of at most the
        constructor's ``max_block_k`` columns (None = one chunk) pays
        one column-broadcast and one row-reduce — ``ceil(k/max_block_k)``
        collectives total instead of ``k``.  ``overlap`` selects the
        charged schedule (None = overlapped): the overlapped schedule
        prefetches each chunk's broadcast behind the previous
        chunk's compute, the serial one charges them back to back;
        results are bitwise identical either way.  ``matvec_count``
        advances by ``k`` (logical actions), ``matmat_count`` by the
        chunk count; ``last_timing.wall`` holds the schedule's critical
        path, ``last_timing.phases`` the work charged per phase.
        ``out`` (``(Nt, Nd, k)`` float64, C-contiguous) receives the
        result in place — repeated applies are then allocation-free at
        steady state.  ``deterministic=True`` runs
        every rank's Phase 3 as per-column GEMVs so column ``j`` is
        **bitwise** ``matvec(M[:, :, j])`` (see
        :meth:`FFTMatvec.matmat`); the elementwise tree-reduce already
        preserves per-column bits, so the guarantee survives the grid.
        With ``reduction="pairwise"`` that per-column guarantee holds
        unconditionally *and* the result is bitwise-invariant to the
        grid partition and chunking (``deterministic`` is then
        redundant and ignored).  A constructor-fused ``host`` model
        charges each chunk's generate/save on the third stream.
        """
        return self._matmat_impl(
            M, config, adjoint=False, overlap=overlap, out=out,
            deterministic=deterministic,
        )

    def rmatmat(
        self,
        D: np.ndarray,
        config: Union[str, PrecisionConfig] = "ddddd",
        overlap: Optional[bool] = None,
        out: Optional[np.ndarray] = None,
        deterministic: bool = False,
    ) -> np.ndarray:
        """Compute ``M = F* D`` for k data vectors across the grid, in
        chunks of the constructor's ``max_block_k``.

        The blocked adjoint: one row-broadcast and one column-reduce per
        chunk (the column reduce crosses machine groups, so hiding its
        latency behind compute matters most).  See :meth:`matmat`,
        including the ``deterministic`` / ``reduction="pairwise"``
        bitwise guarantees and the fused ``host`` stream.
        """
        return self._matmat_impl(
            D, config, adjoint=True, overlap=overlap, out=out,
            deterministic=deterministic,
        )
