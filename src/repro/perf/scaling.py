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

from repro.comm.collectives import tree_collective_time
from repro.comm.grid import ProcessGrid
from repro.comm.netmodel import FRONTIER_NETWORK
from repro.comm.partition import published_frontier_rows
from repro.core.precision import PrecisionConfig
from repro.gpu.specs import MI250X_GCD
from repro.perf.phase_model import (
    block_phase_times,
    checksum_overhead_model,
    overlapped_chunk_schedule,
    phase_times,
)
from repro.util.blocking import chunk_ranges
from repro.util.dtypes import real_dtype
from repro.util.timing import HostModel
from repro.util.validation import ReproError, check_positive_int

__all__ = [
    "ScalingPoint",
    "matvec_time_at_scale",
    "blocked_matvec_time_at_scale",
    "scaling_sweep",
    "paper_config_for",
]


# The paper's weak-scaling problem: Nm = 5000 p, Nd = 100, Nt = 1000 on
# MI250X GCDs and the Frontier network.
NM_PER_GPU, ND, NT = 5000, 100, 1000
SPEC = MI250X_GCD
SWEEP_K, SWEEP_MAX_BLOCK_K = 16, 4


def paper_config_for(p: int) -> str:
    """The paper's optimal mixed config per GPU count (artifact appendix):
    ``dssdd`` below 512 GPUs, ``dssds`` at 512 and above."""
    return "dssdd" if p < 512 else "dssds"


def _local_extents(p: int, pr: int):
    """Shared sizing: (pc, nm_local, nd_local) of the balanced grid split."""
    check_positive_int(p, "p")
    check_positive_int(pr, "pr")
    if p % pr != 0:
        raise ValueError(f"pr={pr} must divide p={p}")
    pc = p // pr
    # The even split's first part is its largest, and starts at 0 (one
    # sensor when there are more grid rows than sensors).
    nm_local = ProcessGrid.split_extent(NM_PER_GPU * p, pc)[0][1]
    nd_local = ProcessGrid.split_extent(ND, pr)[0][1]
    return pc, nm_local, nd_local


def _grid_collective_times(
    cfg: PrecisionConfig,
    nm_local: int,
    nd_local: int,
    pr: int,
    pc: int,
    kc: int = 1,
):
    """Shared comm model: (t_bcast, t_reduce) of one kc-wide chunk.

    Volumes follow the phase precisions (Phase 1 in single halves the
    broadcast; Phase 5 in single halves the reduce) and scale by the
    chunk width; the broadcast goes down machine-spanning columns and
    the reduce across contiguous rows.
    """
    bcast_bytes = nm_local * NT * real_dtype(cfg.pad).itemsize * kc
    reduce_bytes = nd_local * NT * real_dtype(cfg.unpad).itemsize * kc
    col_span = (pr - 1) * pc + 1
    t_bcast = tree_collective_time(pr, bcast_bytes, FRONTIER_NETWORK, span=col_span)
    t_reduce = tree_collective_time(pc, reduce_bytes, FRONTIER_NETWORK, span=pc)
    return t_bcast, t_reduce


def _chunk_schedule(
    cfg: PrecisionConfig,
    nm_rank: int,
    nd_rank: int,
    pr: int,
    pc: int,
    k: int,
    max_block_k: Optional[int],
    host: Optional[HostModel],
) -> dict:
    """The chunk schedule of a ``k``-RHS matmat on a grid whose critical
    rank owns ``nm_rank`` parameters and ``nd_rank`` sensors.  Per chunk,
    the collectives carry that rank's column block (the largest; it
    gates the broadcast) and compute is its blocked pipeline pass.
    Returns :func:`overlapped_chunk_schedule`'s keys plus ``n_chunks``
    and the first chunk's ``compute`` / ``bcast`` / ``reduce`` seconds.
    """
    widths = [j1 - j0 for j0, j1 in chunk_ranges(k, max_block_k)]
    chunk_bcast, chunk_compute, chunk_reduce = [], [], []
    for kc in widths:
        t_bcast, t_reduce = _grid_collective_times(cfg, nm_rank, nd_rank, pr, pc, kc=kc)
        chunk_bcast.append(t_bcast)
        chunk_reduce.append(t_reduce)
        chunk_compute.append(
            sum(block_phase_times(nm_rank, nd_rank, NT, kc, cfg, SPEC).values())
        )
    sched = overlapped_chunk_schedule(
        chunk_bcast,
        chunk_compute,
        chunk_reduce,
        overlap_efficiency=FRONTIER_NETWORK.overlap_efficiency,
        chunk_gen=[kc * host.gen_time for kc in widths] if host is not None else None,
        chunk_save=[kc * host.save_time for kc in widths] if host is not None else None,
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
) -> dict:
    """Modeled seconds of one distributed forward matvec at the paper's
    weak-scaling sizes; returns a breakdown.

    Keys: ``compute``, ``bcast``, ``reduce``, ``total``.
    """
    cfg = PrecisionConfig.parse(config)
    pc, nm_local, nd_local = _local_extents(p, pr)
    compute = sum(phase_times(nm_local, nd_local, NT, cfg, SPEC).values())
    t_bcast, t_reduce = _grid_collective_times(cfg, nm_local, nd_local, pr, pc)
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
    host: Optional[HostModel] = None,
) -> dict:
    """Modeled seconds of a blocked k-RHS distributed forward matmat at
    the paper's weak-scaling sizes; breakdown.

    The event-timeline counterpart of :func:`matvec_time_at_scale`: per
    chunk of ``max_block_k`` columns the grid pays one broadcast (volume
    scaled by the chunk width, one latency tree) and one reduce, and the
    double-buffered schedule prefetches chunk ``i+1``'s broadcast behind
    chunk ``i``'s compute (:func:`overlapped_chunk_schedule`, honoring
    the network's ``overlap_efficiency``).  ``skew`` models an irregular
    partition: the slowest rank owns ``(1 + skew)`` times the balanced
    local block, and — since every collective waits for the slowest
    rank — its per-chunk compute gates the schedule.

    Per-chunk compute is charged through the blocked SBGEMM phase model
    (:func:`~repro.perf.phase_model.block_phase_times` — one pad / one
    batched FFT / one strided-batched GEMM / one inverse FFT / one unpad
    for the whole chunk), not at ``kc`` times the per-vector rate: the
    blocked pipeline amortizes launch overhead and the dominant spectrum
    read, and the engine-consistency test pins the model to what the
    engine actually charges.  The skew penalty is this call's ``total``
    over the same call's at ``skew=0`` (the even split,
    :meth:`~repro.comm.grid.ProcessGrid.split_extent`).

    Keys: ``serial``, ``overlapped``, ``hidden``, ``total`` (the
    overlapped wall), ``per_vector`` (total / k), ``serial_per_vector``,
    ``n_chunks``, ``compute``, ``bcast``, ``reduce`` (per-chunk seconds
    of the first chunk).

    ``host`` adds the third stream: a :class:`~repro.util.timing.HostModel`
    charges per-chunk source generation / result saving, and the fused
    schedule runs it concurrently with device compute and network —
    ``gen(i)`` gates ``bcast(i)``, ``save(i)`` trails ``reduce(i)``, the
    replay of ``ParallelFFTMatvec(host=...)``.  The result then also
    carries ``two_stream_host`` (host charged serially after the
    two-stream schedule — a host-less engine's wall plus
    ``k * host.per_vector``),
    ``overlapped3`` (the fused wall), ``hidden_host``, and
    ``per_vector_overlap3``; without a host model those keys degenerate
    to the two-stream values.
    """
    check_positive_int(k, "k")
    if skew < 0:
        raise ReproError(f"skew must be >= 0, got {skew}")
    cfg = PrecisionConfig.parse(config)
    pc, nm_local, nd_local = _local_extents(p, pr)
    nm_global = NM_PER_GPU * p
    # Irregular partition: the critical rank's local block is (1+skew)x
    # the balanced share (capped at the global extent).
    nm_slow = min(nm_global, int(math.ceil(nm_local * (1.0 + skew))))
    nd_slow = min(ND, int(math.ceil(nd_local * (1.0 + skew))))
    sched = _chunk_schedule(cfg, nm_slow, nd_slow, pr, pc, k, max_block_k, host)
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
        "two_stream_host": sched["two_stream_host"],
        "overlapped3": sched["overlapped3"],
        "hidden_host": sched["hidden_host"],
        "per_vector_overlap3": sched["overlapped3"] / k,
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
    batching of the blocked path.

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


def scaling_sweep(
    gpu_counts: Sequence[int] = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096),
    skew: float = 0.0,
    checksums: bool = False,
) -> list:
    """The Figure-4 time/speedup series over GPU counts, on the paper's
    published grid-row schedule.

    Each point also carries the double-buffered blocked per-vector times
    (``SWEEP_K`` RHS in chunks of ``SWEEP_MAX_BLOCK_K``, broadcasts
    prefetched behind compute, chunk compute through the blocked SBGEMM
    phase model, per-rank ``skew`` honored).

    ``checksums=True`` adds the SDC-defense columns: the modeled
    fractional cost of ABFT + Parseval checks on the local blocked
    apply and the fraction of apply time they guard
    (:func:`~repro.perf.phase_model.checksum_overhead_model` at the
    mixed config and local extents of each point).
    """
    points = []
    for p in gpu_counts:
        pr = published_frontier_rows(p)
        cfg = paper_config_for(p)
        t_d = matvec_time_at_scale(p, pr, "ddddd")["total"]
        t_m = matvec_time_at_scale(p, pr, cfg)["total"]
        blocked_double = blocked_matvec_time_at_scale(
            p, pr, "ddddd", k=SWEEP_K, max_block_k=SWEEP_MAX_BLOCK_K, skew=skew
        )
        blocked_mixed = blocked_matvec_time_at_scale(
            p, pr, cfg, k=SWEEP_K, max_block_k=SWEEP_MAX_BLOCK_K, skew=skew
        )
        if checksums:
            _, nm_local, nd_local = _local_extents(p, pr)
            ck = checksum_overhead_model(nm_local, nd_local, NT, SWEEP_MAX_BLOCK_K, cfg, SPEC)
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
                checksum_overhead=ck["fraction"] if ck is not None else 0.0,
                sdc_coverage=ck["coverage"] if ck is not None else 0.0,
            )
        )
    return points
