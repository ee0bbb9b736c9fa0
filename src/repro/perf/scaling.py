"""Multi-GPU scaling model (Figure 4).

Weak scaling at the paper's sizes: ``Nm = 5000 * p``, ``Nd = 100``,
``Nt = 1000`` on MI250X GCDs with the Frontier network model.  Per grid
shape ``(pr, pc)``:

* local compute = :func:`repro.perf.phase_model.phase_times` at the
  local block size ``(Nd/pr) x (Nm/pc)`` (invariant total bytes — each
  rank owns ``Nd*Nm/p`` of every Toeplitz block);
* Phase-1 broadcast of the column parameter block (``Nm/pc * Nt`` words
  at Phase 1's precision) over ``pr`` machine-spanning ranks;
* Phase-5 reduction of the row data block (``Nd/pr * Nt`` words at
  Phase 5's precision) over ``pc`` contiguous ranks.

Relative errors at scale are *measured*, not modeled: the Figure-4 bench
runs the real SPMD engine with a proportionally reduced local problem
(4096 actual ranks in-process) and reports the measured error trend; the
Eq. (6) bound is printed alongside for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.comm.balance import balance_extents, linear_cost
from repro.comm.collectives import tree_collective_time
from repro.comm.grid import ProcessGrid
from repro.comm.netmodel import FRONTIER_NETWORK, NetworkModel
from repro.comm.partition import published_frontier_rows
from repro.core.precision import PrecisionConfig
from repro.gpu.specs import GPUSpec, MI250X_GCD, get_gpu
from repro.perf.phase_model import (
    block_phase_times,
    checksum_overhead_model,
    overlapped_chunk_schedule,
    phase_times,
    recovery_cost_model,
)
from repro.util.blocking import chunk_ranges
from repro.util.dtypes import real_dtype
from repro.util.timing import HostModel
from repro.util.validation import ReproError, check_positive_int

__all__ = [
    "ScalingPoint",
    "matvec_time_at_scale",
    "blocked_matvec_time_at_scale",
    "mixed_fleet_times",
    "scaling_sweep",
    "paper_config_for",
]


def paper_config_for(p: int) -> str:
    """The paper's optimal mixed config per GPU count (artifact appendix):
    ``dssdd`` below 512 GPUs, ``dssds`` at 512 and above."""
    return "dssdd" if p < 512 else "dssds"


def _local_extents(p: int, pr: int, nm_per_gpu: int, nd: int):
    """Shared sizing: (pc, nm_local, nd_local) of the balanced grid split."""
    check_positive_int(p, "p")
    check_positive_int(pr, "pr")
    if p % pr != 0:
        raise ValueError(f"pr={pr} must divide p={p}")
    pc = p // pr
    # The even split's first part is its largest, and starts at 0 (one
    # sensor when there are more grid rows than sensors).
    nm_local = ProcessGrid.split_extent(nm_per_gpu * p, pc)[0][1]
    nd_local = ProcessGrid.split_extent(nd, pr)[0][1]
    return pc, nm_local, nd_local


def _grid_collective_times(
    cfg: PrecisionConfig,
    nm_local: int,
    nd_local: int,
    nt: int,
    pr: int,
    pc: int,
    net: NetworkModel,
    adjoint: bool,
    kc: int = 1,
):
    """Shared comm model: (t_bcast, t_reduce) of one kc-wide chunk.

    Volumes follow the phase precisions (Phase 1 in single halves the
    broadcast; Phase 5 in single halves the reduce) and scale by the
    chunk width; the forward broadcast goes down machine-spanning
    columns and the reduce across contiguous rows, the adjoint swaps
    both the payloads and the topologies.
    """
    bcast_bytes = nm_local * nt * real_dtype(cfg.pad).itemsize * kc
    reduce_bytes = nd_local * nt * real_dtype(cfg.unpad).itemsize * kc
    col_span = (pr - 1) * pc + 1
    if adjoint:
        # F*: broadcast data over rows (pc contiguous), reduce parameters
        # over columns (pr machine-spanning).
        bcast_bytes, reduce_bytes = reduce_bytes, bcast_bytes
        t_bcast = tree_collective_time(pc, bcast_bytes, net, span=pc)
        t_reduce = tree_collective_time(pr, reduce_bytes, net, span=col_span)
    else:
        t_bcast = tree_collective_time(pr, bcast_bytes, net, span=col_span)
        t_reduce = tree_collective_time(pc, reduce_bytes, net, span=pc)
    return t_bcast, t_reduce


def _chunk_schedule(
    cfg: PrecisionConfig,
    ranks: Sequence,
    nd_rank: int,
    nt: int,
    pr: int,
    pc: int,
    net: NetworkModel,
    adjoint: bool,
    k: int,
    max_block_k: Optional[int],
    host: Optional[HostModel] = None,
    overlap_host: bool = True,
) -> dict:
    """The chunk schedule of a ``k``-RHS matmat on a grid whose critical
    ranks own ``ranks`` — ``(nm_rank, spec)`` pairs, all ``nd_rank``
    sensors deep.  Per chunk, the collectives carry the largest column
    block (it gates the broadcast) and compute is the slowest rank's
    blocked pipeline pass.  Returns :func:`overlapped_chunk_schedule`'s
    keys plus ``n_chunks`` and the first chunk's ``compute`` / ``bcast``
    / ``reduce`` seconds.
    """
    widths = [j1 - j0 for j0, j1 in chunk_ranges(k, max_block_k)]
    nm_max = max(nm_rank for nm_rank, _ in ranks)
    chunk_bcast, chunk_compute, chunk_reduce = [], [], []
    for kc in widths:
        t_bcast, t_reduce = _grid_collective_times(
            cfg, nm_max, nd_rank, nt, pr, pc, net, adjoint, kc=kc
        )
        chunk_bcast.append(t_bcast)
        chunk_reduce.append(t_reduce)
        chunk_compute.append(
            max(
                sum(
                    block_phase_times(
                        nm_rank, nd_rank, nt, kc, cfg, spec, adjoint=adjoint
                    ).values()
                )
                for nm_rank, spec in ranks
            )
        )
    sched = overlapped_chunk_schedule(
        chunk_bcast,
        chunk_compute,
        chunk_reduce,
        overlap_efficiency=net.overlap_efficiency,
        chunk_gen=[kc * host.gen_time for kc in widths] if host is not None else None,
        chunk_save=[kc * host.save_time for kc in widths] if host is not None else None,
        overlap_host=overlap_host,
    )
    sched["n_chunks"] = len(widths)
    sched["compute"] = chunk_compute[0]
    sched["bcast"] = chunk_bcast[0]
    sched["reduce"] = chunk_reduce[0]
    return sched


def matvec_time_at_scale(
    p: int,
    pr: int,
    config: Union[str, PrecisionConfig],
    nm_per_gpu: int = 5000,
    nd: int = 100,
    nt: int = 1000,
    spec: GPUSpec = MI250X_GCD,
    net: NetworkModel = FRONTIER_NETWORK,
    adjoint: bool = False,
) -> dict:
    """Modeled seconds of one distributed matvec; returns a breakdown.

    Keys: ``compute``, ``bcast``, ``reduce``, ``total``.
    """
    cfg = PrecisionConfig.parse(config)
    pc, nm_local, nd_local = _local_extents(p, pr, nm_per_gpu, nd)
    compute = sum(
        phase_times(nm_local, nd_local, nt, cfg, spec, adjoint=adjoint).values()
    )
    t_bcast, t_reduce = _grid_collective_times(
        cfg, nm_local, nd_local, nt, pr, pc, net, adjoint
    )
    return {
        "compute": compute,
        "bcast": t_bcast,
        "reduce": t_reduce,
        "total": compute + t_bcast + t_reduce,
    }


def blocked_matvec_time_at_scale(
    p: int,
    pr: int,
    config: Union[str, PrecisionConfig],
    k: int = 16,
    max_block_k: Optional[int] = None,
    skew: float = 0.0,
    nm_per_gpu: int = 5000,
    nd: int = 100,
    nt: int = 1000,
    spec: GPUSpec = MI250X_GCD,
    net: NetworkModel = FRONTIER_NETWORK,
    adjoint: bool = False,
    host: Optional[HostModel] = None,
    overlap_host: bool = True,
) -> dict:
    """Modeled seconds of a blocked k-RHS distributed matmat; breakdown.

    The event-timeline counterpart of :func:`matvec_time_at_scale`: per
    chunk of ``max_block_k`` columns the grid pays one broadcast (volume
    scaled by the chunk width, one latency tree) and one reduce, and the
    double-buffered schedule prefetches chunk ``i+1``'s broadcast behind
    chunk ``i``'s compute (:func:`overlapped_chunk_schedule`, honoring
    ``net.overlap_efficiency``).  ``skew`` models an irregular partition:
    the slowest rank owns ``(1 + skew)`` times the balanced local block,
    and — since every collective waits for the slowest rank — its
    per-chunk compute gates the schedule.

    Per-chunk compute is charged through the blocked SBGEMM phase model
    (:func:`~repro.perf.phase_model.block_phase_times` — one pad / one
    batched FFT / one strided-batched GEMM / one inverse FFT / one unpad
    for the whole chunk), not at ``kc`` times the per-vector rate: the
    blocked pipeline amortizes launch overhead and the dominant spectrum
    read, and the engine-consistency test pins the model to what the
    engine actually charges.

    When ``skew > 0`` the ``*_balanced`` keys report the schedule after
    the skew-searching partitioner (:mod:`repro.comm.balance`) rebalanced
    the injected irregularity on both grid axes — the skew the measure →
    rebalance loop recovers at scale.  The at-scale grid is homogeneous,
    where that search lands on the even split
    (:meth:`~repro.comm.grid.ProcessGrid.split_extent`; identical extents
    at every point of the paper sweep), so the split is used directly.

    Keys: ``serial``, ``overlapped``, ``hidden``, ``total`` (the
    overlapped wall), ``per_vector`` (total / k), ``serial_per_vector``,
    ``n_chunks``, ``compute``, ``bcast``, ``reduce`` (per-chunk seconds
    of the first chunk), plus ``total_balanced`` /
    ``per_vector_balanced`` — the searched partition's overlapped wall,
    so ``total - total_balanced`` is the modeled skew the search wins
    back (zero when ``skew == 0``; the homogeneous at-scale search
    recovers the ceil-balanced split, so the balanced keys coincide
    with a ``skew=0`` run — *measured* recovery on a real engine is
    what ``benchmarks/test_balance_grid.py`` scores).

    ``host`` adds the third stream: a :class:`~repro.util.timing.HostModel`
    charges per-chunk source generation / result saving, and the fused
    schedule (``overlap_host=True``) runs it concurrently with device
    compute and network — ``gen(i)`` gates ``bcast(i)``, ``save(i)``
    trails ``reduce(i)``, the replay of
    ``ParallelFFTMatvec(host=...)``.  The result then also carries
    ``two_stream_host`` (host charged serially after the two-stream
    schedule — the engine's ``overlap_host=False``), ``overlapped3``
    (the fused wall), ``hidden_host``, and ``per_vector_overlap3``;
    without a host model those keys degenerate to the two-stream values.
    """
    check_positive_int(k, "k")
    if skew < 0:
        raise ReproError(f"skew must be >= 0, got {skew}")
    cfg = PrecisionConfig.parse(config)
    pc, nm_local, nd_local = _local_extents(p, pr, nm_per_gpu, nd)
    nm_global = nm_per_gpu * p
    # Irregular partition: the critical rank's local block is (1+skew)x
    # the balanced share (capped at the global extent).
    nm_slow = min(nm_global, int(math.ceil(nm_local * (1.0 + skew))))
    nd_slow = min(nd, int(math.ceil(nd_local * (1.0 + skew))))

    def schedule_for(nm_rank: int, nd_rank: int) -> dict:
        """Chunk schedule with the critical rank owning the given extents."""
        return _chunk_schedule(
            cfg, [(nm_rank, spec)], nd_rank, nt, pr, pc, net, adjoint, k, max_block_k,
            host=host, overlap_host=overlap_host,
        )

    sched = schedule_for(nm_slow, nd_slow)
    # Rebalancing the injected skew on a homogeneous grid recovers the
    # even split, whatever the skew was: the slowest rank then owns the
    # largest even part again (``_local_extents``).
    sched_bal = (
        sched
        if (nm_local, nd_local) == (nm_slow, nd_slow)
        else schedule_for(nm_local, nd_local)
    )
    return {
        "serial": sched["serial"],
        "overlapped": sched["overlapped"],
        "hidden": sched["hidden"],
        "total": sched["overlapped"],
        "per_vector": sched["overlapped"] / k,
        "serial_per_vector": sched["serial"] / k,
        "n_chunks": sched["n_chunks"],
        "compute": sched["compute"],
        "bcast": sched["bcast"],
        "reduce": sched["reduce"],
        "total_balanced": sched_bal["overlapped"],
        "per_vector_balanced": sched_bal["overlapped"] / k,
        "two_stream_host": sched["two_stream_host"],
        "overlapped3": sched["overlapped3"],
        "hidden_host": sched["hidden_host"],
        "per_vector_overlap3": sched["overlapped3"] / k,
    }


def _fleet_column_specs(pc: int, mix: Sequence) -> list:
    """Resolve a ``[(spec_or_name, fraction), ...]`` mix to per-column specs.

    Columns are assigned to spec groups contiguously by cumulative
    fraction (rounded, every group keeps at least one column) — the
    column-banded fleet a site gets when it extends a homogeneous
    machine with a newer partition.
    """
    if not mix:
        raise ReproError("mix must be non-empty")
    specs, fracs = [], []
    for entry in mix:
        spec, frac = entry
        specs.append(get_gpu(spec) if isinstance(spec, str) else spec)
        f = float(frac)
        if f <= 0:
            raise ReproError(f"mix fraction must be > 0, got {f}")
        fracs.append(f)
    total = sum(fracs)
    if abs(total - 1.0) > 1e-6:
        raise ReproError(f"mix fractions must sum to 1, got {total}")
    if len(specs) > pc:
        raise ReproError(
            f"mix has {len(specs)} groups but the grid only has {pc} columns"
        )
    bounds = [0]
    cum = 0.0
    for f in fracs:
        cum += f
        bounds.append(int(round(cum * pc)))
    for i in range(1, len(bounds)):
        bounds[i] = max(bounds[i], bounds[i - 1] + 1)
    bounds[-1] = pc
    if any(b1 <= b0 for b0, b1 in zip(bounds, bounds[1:])):
        raise ReproError(f"mix fractions leave a group without columns: {mix}")
    col_specs = []
    for g, spec in enumerate(specs):
        col_specs.extend([spec] * (bounds[g + 1] - bounds[g]))
    return col_specs


def mixed_fleet_times(
    p: int,
    pr: int,
    config: Union[str, PrecisionConfig],
    mix: Sequence,
    k: int = 16,
    max_block_k: Optional[int] = None,
    nm_per_gpu: int = 5000,
    nd: int = 100,
    nt: int = 1000,
    net: NetworkModel = FRONTIER_NETWORK,
    adjoint: bool = False,
) -> dict:
    """Heterogeneous-fleet column of the at-scale model.

    ``mix`` is ``[(spec_or_name, fraction), ...]``: the grid's ``pc``
    columns split into contiguous spec groups by fraction, so every rank
    in a column band owns the same device (the usual way a site mixes
    generations).  Two partitions are modeled:

    * **naive** — the even ceil split a homogeneous launcher would use;
      every chunk's compute is gated by the slowest device holding a
      full-size column block, so the whole fleet runs at the worst
      device's pace;
    * **balanced** — ``col_ranges`` searched by
      :func:`~repro.comm.balance.balance_extents` on per-column cost
      slopes measured from the blocked phase model itself (seconds per
      owned parameter, finite-differenced at two extents so per-launch
      constants drop out) *plus* the broadcast slope: the chunk
      broadcast is gated by the largest column payload, so a search
      that ignored comm would fatten the fast columns past the point
      where the broadcast they gate eats the compute win.  When even
      the comm-aware search cannot beat the naive wall (broadcast-bound
      scales), the naive split is kept and ``speedup`` is 1.0.

    Each wall runs the double-buffered chunk schedule with per-chunk
    compute the max over columns of the blocked phase model on that
    column's spec and extent.  Returns ``naive`` / ``balanced`` walls,
    their ``per_vector_*`` forms, ``speedup`` (naive over balanced —
    the Figure-4 mixed-fleet column), the searched ``extents`` and the
    resolved ``groups`` as ``(spec name, column count)`` pairs.
    """
    check_positive_int(k, "k")
    cfg = PrecisionConfig.parse(config)
    pc, _, nd_local = _local_extents(p, pr, nm_per_gpu, nd)
    nm_global = nm_per_gpu * p
    col_specs = _fleet_column_specs(pc, mix)

    def wall_for(extents) -> float:
        lengths = [stop - start for start, stop in extents]
        return _chunk_schedule(
            cfg, list(zip(lengths, col_specs)), nd_local, nt, pr, pc, net, adjoint,
            k, max_block_k,
        )["overlapped"]

    naive_extents = ProcessGrid.split_extent(nm_global, pc)

    widths = [j1 - j0 for j0, j1 in chunk_ranges(k, max_block_k)]

    def compute_seconds(ln: int, sp: GPUSpec) -> float:
        return sum(
            sum(
                block_phase_times(
                    ln, nd_local, nt, kc, cfg, sp, adjoint=adjoint
                ).values()
            )
            for kc in widths
        )

    def bcast_seconds(ln: int) -> float:
        return sum(
            _grid_collective_times(
                cfg, ln, nd_local, nt, pr, pc, net, adjoint, kc=kc
            )[0]
            for kc in widths
        )

    # Per-element slopes, finite-differenced so per-launch constants
    # cancel (the affine trick of repro.comm.balance applied to the
    # model itself); one slope pair per distinct spec.
    n_hi, n_lo = naive_extents[0][1], max(1, nm_global // pc // 2)
    comm_slope = (bcast_seconds(n_hi) - bcast_seconds(n_lo)) / (n_hi - n_lo)
    spec_slope = {}
    for sp in col_specs:
        if sp.name not in spec_slope:
            spec_slope[sp.name] = (
                compute_seconds(n_hi, sp) - compute_seconds(n_lo, sp)
            ) / (n_hi - n_lo)
    units = [spec_slope[sp.name] + comm_slope for sp in col_specs]
    searched = balance_extents(
        nm_global,
        pc,
        linear_cost(units),
        initial=naive_extents,
        what="col_ranges",
    )
    wall_naive = wall_for(naive_extents)
    wall_balanced = wall_for(searched.extents)
    balanced_extents = searched.extents
    if wall_balanced > wall_naive:
        # Broadcast-bound: the largest payload gates every chunk and no
        # repartition can beat the even split — keep it.
        wall_balanced = wall_naive
        balanced_extents = naive_extents
    groups = []
    for sp in col_specs:
        if groups and groups[-1][0] == sp.name:
            groups[-1] = (sp.name, groups[-1][1] + 1)
        else:
            groups.append((sp.name, 1))
    return {
        "naive": wall_naive,
        "balanced": wall_balanced,
        "per_vector_naive": wall_naive / k,
        "per_vector_balanced": wall_balanced / k,
        "speedup": wall_naive / wall_balanced if wall_balanced > 0 else 1.0,
        "extents": balanced_extents,
        "groups": groups,
    }


@dataclass(frozen=True)
class ScalingPoint:
    """One GPU count of the Figure-4 sweep.

    ``time_double`` / ``time_mixed`` are the classic serial per-matvec
    times; ``time_double_overlap`` / ``time_mixed_overlap`` are the
    per-vector times of the double-buffered blocked schedule (k RHS,
    chunk broadcasts prefetched behind compute), and
    ``time_mixed_blocked_serial`` is the *same* blocked chunking charged
    serially — the pair isolates the overlap win from the collective
    batching PR 2 already delivered.  All three are 0.0 when the sweep
    ran without the blocked model.

    ``time_double_balanced`` / ``time_mixed_balanced`` are the same
    overlapped per-vector times after the skew-searching partitioner
    (:mod:`repro.comm.balance`) rebalanced the sweep's injected ``skew``;
    with ``skew=0`` they equal the overlap columns, and
    :attr:`balance_speedup` quantifies the recovered skew.

    ``time_mixed_two_stream_host`` / ``time_mixed_overlap3`` are the
    per-vector times with the sweep's :class:`~repro.util.timing.HostModel`
    charged serially after the two-stream schedule vs fused as the third
    stream; :attr:`host_overlap_speedup` is their ratio.  Both are 0.0
    when the sweep ran without a host model.

    ``system_mtbf_s`` / ``recovery_slowdown`` are the fault-tolerance
    columns: the machine-level mean time between failures at this GPU
    count (per-GPU MTBF divided by ``p`` — more devices, more failures)
    and the expected wall-time inflation of a nominal job under the
    Young/Daly checkpoint model
    (:func:`~repro.perf.phase_model.recovery_cost_model`).  They default
    to 0.0 / 1.0 when the sweep ran without an MTBF.

    ``checksum_overhead`` / ``sdc_coverage`` are the silent-data-
    corruption defense columns
    (:func:`~repro.perf.phase_model.checksum_overhead_model` on the
    local blocked apply at the mixed config): the modeled fractional
    cost of running ABFT + Parseval checks on every apply, and the
    fraction of apply time a detector guards.  Both are 0.0 when the
    sweep ran with ``checksums=False``.
    """

    p: int
    pr: int
    pc: int
    config: str
    time_double: float
    time_mixed: float
    time_double_overlap: float = 0.0
    time_mixed_overlap: float = 0.0
    time_mixed_blocked_serial: float = 0.0
    time_double_balanced: float = 0.0
    time_mixed_balanced: float = 0.0
    time_mixed_two_stream_host: float = 0.0
    time_mixed_overlap3: float = 0.0
    system_mtbf_s: float = 0.0
    recovery_slowdown: float = 1.0
    checksum_overhead: float = 0.0
    sdc_coverage: float = 0.0

    @property
    def speedup(self) -> float:
        return self.time_double / self.time_mixed

    @property
    def overlap_speedup(self) -> float:
        """Blocked-serial per-vector time over the overlapped one.

        Same chunking on both sides, so this is the overlap effect
        alone, not the batching win.
        """
        if self.time_mixed_overlap <= 0.0:
            return 1.0
        return self.time_mixed_blocked_serial / self.time_mixed_overlap

    @property
    def balance_speedup(self) -> float:
        """Skewed overlapped time over the searched-partition time.

        1.0 when the sweep injected no skew (nothing to recover); above
        1.0, the factor the cost-model-driven ``row_ranges``/``col_ranges``
        search wins back at this GPU count.
        """
        if self.time_mixed_balanced <= 0.0:
            return 1.0
        return self.time_mixed_overlap / self.time_mixed_balanced

    @property
    def host_overlap_speedup(self) -> float:
        """Serial-host per-vector time over the three-stream fused one.

        Same chunking and same host charges on both sides, so this is
        the host-fusion effect alone; 1.0 when the sweep carried no
        host model.
        """
        if self.time_mixed_overlap3 <= 0.0:
            return 1.0
        return self.time_mixed_two_stream_host / self.time_mixed_overlap3


def scaling_sweep(
    gpu_counts: Sequence[int] = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096),
    nm_per_gpu: int = 5000,
    nd: int = 100,
    nt: int = 1000,
    spec: GPUSpec = MI250X_GCD,
    net: NetworkModel = FRONTIER_NETWORK,
    rows: Optional[Sequence[int]] = None,
    k: int = 16,
    max_block_k: Optional[int] = 4,
    skew: float = 0.0,
    host: Optional[HostModel] = None,
    mtbf_per_gpu_s: Optional[float] = None,
    job_s: float = 3600.0,
    checkpoint_s: float = 0.5,
    restart_s: float = 5.0,
    checksums: bool = False,
) -> list:
    """The Figure-4 time/speedup series over GPU counts.

    ``rows`` overrides the per-count grid-row schedule (defaults to the
    paper's published schedule).  Each point also carries the
    double-buffered blocked per-vector times (``k`` RHS in chunks of
    ``max_block_k``, broadcasts prefetched behind compute, chunk compute
    through the blocked SBGEMM phase model, per-rank ``skew`` honored)
    plus the ``time_*_balanced`` columns: the same schedule after the
    skew-searching partitioner rebalanced the injected skew
    (``balance_speedup`` quantifies the recovery per GPU count).  With a
    ``host`` model the mixed-config point also carries the serial-host
    and three-stream fused per-vector columns
    (``host_overlap_speedup``).

    ``mtbf_per_gpu_s`` turns on the fault-tolerance columns: each point
    gets the system-level MTBF (``mtbf_per_gpu_s / p`` — failures
    multiply with the fleet) and the expected slowdown of a ``job_s``-
    second job under the Young/Daly checkpoint model at that MTBF
    (:func:`~repro.perf.phase_model.recovery_cost_model` with
    ``checkpoint_s`` per snapshot and ``restart_s`` per grid rebuild).
    The slowdown grows with ``p`` even though per-matvec time shrinks —
    the cost of riding an elastic grid at scale.

    ``checksums=True`` adds the SDC-defense columns: the modeled
    fractional cost of ABFT + Parseval checks on the local blocked
    apply and the fraction of apply time they guard
    (:func:`~repro.perf.phase_model.checksum_overhead_model` at the
    mixed config and local extents of each point).
    """
    points = []
    for i, p in enumerate(gpu_counts):
        pr = rows[i] if rows is not None else published_frontier_rows(p)
        cfg = paper_config_for(p)
        t_d = matvec_time_at_scale(
            p, pr, "ddddd", nm_per_gpu, nd, nt, spec=spec, net=net
        )["total"]
        t_m = matvec_time_at_scale(
            p, pr, cfg, nm_per_gpu, nd, nt, spec=spec, net=net
        )["total"]
        blocked_double = blocked_matvec_time_at_scale(
            p, pr, "ddddd", k=k, max_block_k=max_block_k, skew=skew,
            nm_per_gpu=nm_per_gpu, nd=nd, nt=nt, spec=spec, net=net,
        )
        blocked_mixed = blocked_matvec_time_at_scale(
            p, pr, cfg, k=k, max_block_k=max_block_k, skew=skew,
            nm_per_gpu=nm_per_gpu, nd=nd, nt=nt, spec=spec, net=net,
            host=host,
        )
        if checksums:
            _, nm_local, nd_local = _local_extents(p, pr, nm_per_gpu, nd)
            ck = checksum_overhead_model(
                nm_local, nd_local, nt,
                max_block_k if max_block_k is not None else k,
                cfg, spec,
            )
        else:
            ck = None
        points.append(
            ScalingPoint(
                p=p,
                pr=pr,
                pc=p // pr,
                config=cfg,
                time_double=t_d,
                time_mixed=t_m,
                time_double_overlap=blocked_double["per_vector"],
                time_mixed_overlap=blocked_mixed["per_vector"],
                time_mixed_blocked_serial=blocked_mixed["serial_per_vector"],
                time_double_balanced=blocked_double["per_vector_balanced"],
                time_mixed_balanced=blocked_mixed["per_vector_balanced"],
                time_mixed_two_stream_host=(
                    blocked_mixed["two_stream_host"] / k if host is not None else 0.0
                ),
                time_mixed_overlap3=(
                    blocked_mixed["overlapped3"] / k if host is not None else 0.0
                ),
                system_mtbf_s=(
                    mtbf_per_gpu_s / p if mtbf_per_gpu_s is not None else 0.0
                ),
                recovery_slowdown=(
                    recovery_cost_model(
                        job_s,
                        mtbf_per_gpu_s / p,
                        checkpoint_s,
                        restart_s,
                    )["slowdown"]
                    if mtbf_per_gpu_s is not None
                    else 1.0
                ),
                checksum_overhead=ck["fraction"] if ck is not None else 0.0,
                sdc_coverage=ck["coverage"] if ck is not None else 0.0,
            )
        )
    return points
