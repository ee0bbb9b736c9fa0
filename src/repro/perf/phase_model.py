"""Per-phase matvec cost model at arbitrary problem sizes.

Prices, launch for launch, what the engine books when it runs
numerically: one pad kernel, one batched FFT, (reorder + SBGEMV +
reorder), one batched IFFT, one unpad kernel — each described by the
function the engine describes it with and priced by
:func:`repro.gpu.device.price_launch`, the price a device charges.  A
consistency test (``tests/perf/test_phase_model.py``) runs the real
engine on a simulated device and asserts this model equals the charged
phase times exactly, so figure benches can trust it at paper scale.

:func:`overlapped_chunk_schedule` extends the model to the event
timeline: given per-chunk broadcast / compute / reduce costs, it runs
the grid engine's double-buffered schedule (prefetch chunk ``i+1``'s
broadcast behind chunk ``i``'s compute, reduce behind chunk ``i+1``'s
compute) — :func:`repro.util.timing.run_chunk_schedule`, the very
function the engine runs its chunks through — so analytic predictions
and charged times cannot drift apart.  With per-chunk host costs
(``chunk_gen`` / ``chunk_save``) it runs the *three*-stream fused
schedule — host generation gating each broadcast, host save trailing
each reduce — and reports the fused wall next to the
two-stream-plus-serial-host baseline.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Union

from repro.blas.dispatch import SBGEMVDispatcher
from repro.blas.types import BlasDatatype, Operation
from repro.core.matvec import back_launches, front_launches
from repro.core.precision import PrecisionConfig
from repro.fft.plan import fft_traffic_bytes
from repro.gpu.bandwidth import kernel_time, stream_efficiency
from repro.gpu.device import price_launch
from repro.gpu.specs import GPUSpec
from repro.util.dtypes import Precision, complex_dtype
from repro.util.timing import Stream, TimingReport, run_chunk_schedule
from repro.util.validation import ReproError, check_positive_int

__all__ = [
    "phase_times",
    "block_phase_times",
    "modeled_timing",
    "fft_traffic_bytes",
    "overlapped_chunk_schedule",
    "recovery_cost_model",
    "checksum_overhead_model",
]

# Energy (Parseval) accumulations ride kernels that already stream the
# checked buffers (pad / FFT / reorder epilogues), so their cost is a
# small tax on those kernels rather than extra HBM passes.
_FUSED_EPILOGUE_TAX = 0.05


def checksum_overhead_model(
    nm: int,
    nd: int,
    nt: int,
    k: int,
    config: Union[str, PrecisionConfig],
    spec: GPUSpec,
) -> Dict[str, float]:
    """Modeled cost of the SDC checks on one blocked ``k``-RHS forward
    apply.

    Three detector families, costed against the
    :func:`block_phase_times` apply they protect:

    * **Parseval energy** at the FFT/IFFT boundaries: the ``sum(x^2)``
      accumulations fuse into kernels that already traverse the checked
      buffers (pad writes the FFT input, the Phase-3 reorder reads the
      FFT output, and symmetrically for the inverse), so the charge is
      a ``_FUSED_EPILOGUE_TAX`` fraction of the pad/FFT/IFFT/unpad
      kernel times, not extra memory passes.
    * **ABFT column checksums** on the Phase-3 GEMM: the ``e^T op(A)``
      checksum row depends only on the spectrum, so it is computed once
      per engine and amortized to zero across applies; the steady-state
      per-apply cost is one streaming pass over the panel ``B`` (row
      times B) and one over the result ``C`` (column sums), both at the
      SBGEMV precision.

    Returns ``{"energy_s", "abft_s", "total_s", "apply_s", "fraction",
    "covered_s", "coverage"}`` — ``fraction`` is the modeled overhead of
    the checks (the SDC benchmark asserts it stays under 15% on the
    blocked apply); ``coverage`` is the fraction of apply time spent in
    phases a detector guards (FFT/GEMM/IFFT).
    """
    check_positive_int(k, "k")
    cfg = PrecisionConfig.parse(config)
    times = block_phase_times(nm, nd, nt, k, cfg, spec)
    apply_s = sum(times.values())

    energy_s = _FUSED_EPILOGUE_TAX * (
        times["pad"] + times["fft"] + times["ifft"] + times["unpad"]
    )

    n_freq = nt + 1
    c_sb = complex_dtype(cfg.sbgemv).itemsize
    abft_bytes = float(n_freq * k * (nm + nd) * c_sb)
    abft_s = kernel_time(
        abft_bytes, spec, stream_efficiency(abft_bytes, spec)
    )

    covered_s = times["fft"] + times["sbgemv"] + times["ifft"]
    total_s = energy_s + abft_s
    return {
        "energy_s": energy_s,
        "abft_s": abft_s,
        "total_s": total_s,
        "apply_s": apply_s,
        "fraction": total_s / apply_s if apply_s > 0 else 0.0,
        "covered_s": covered_s,
        "coverage": covered_s / apply_s if apply_s > 0 else 0.0,
    }


def recovery_cost_model(
    work_s: float,
    mtbf_s: float,
    checkpoint_s: float,
    restart_s: float,
) -> Dict[str, float]:
    """Expected wall time of a checkpointed run under random rank failures.

    The Young/Daly first-order model, applied to the elastic grid: a run
    of ``work_s`` useful seconds checkpoints at the Young optimum
    interval ``sqrt(2 * checkpoint_s * mtbf_s)`` (capped at ``work_s`` —
    checkpointing less than once per run is just one final snapshot;
    ``checkpoint_s`` per snapshot — e.g. one
    :meth:`~repro.util.checkpoint.CheckpointStore.save` of the block-CG
    state), and each failure costs ``restart_s`` (grid rebuild +
    re-partition + engine reconstruction on the survivors) plus on
    average half an interval of lost work.  Failures arrive at rate
    ``1 / mtbf_s`` (system MTBF — per-device MTBF divided by the device
    count); ``mtbf_s = math.inf`` models a failure-free machine.

    Returns a dict:

    * ``interval_s`` — the interval modeled;
    * ``n_checkpoints`` — snapshots taken (``work_s / interval_s``);
    * ``checkpoint_overhead_s`` — total seconds spent snapshotting;
    * ``expected_failures`` — failures over the protected run;
    * ``rework_s`` — expected lost-work replay (half an interval each);
    * ``restart_overhead_s`` — expected grid-rebuild seconds;
    * ``expected_s`` — expected wall: work + all three overheads;
    * ``slowdown`` — ``expected_s / work_s`` (1.0 on a failure-free
      machine with free checkpoints).
    """
    if work_s <= 0:
        raise ReproError(f"work_s must be > 0, got {work_s}")
    if mtbf_s <= 0:
        raise ReproError(f"mtbf_s must be > 0, got {mtbf_s}")
    if checkpoint_s < 0 or restart_s < 0:
        raise ReproError(
            "checkpoint_s and restart_s must be >= 0, got "
            f"{checkpoint_s} and {restart_s}"
        )
    if math.isinf(mtbf_s):
        interval = float(work_s)
    else:
        interval = min(float(work_s), math.sqrt(2.0 * checkpoint_s * mtbf_s))
        interval = max(interval, 1e-12) if checkpoint_s > 0 else float(work_s)
    n_ckpt = work_s / interval
    ckpt_overhead = n_ckpt * checkpoint_s
    protected = work_s + ckpt_overhead
    failures = 0.0 if math.isinf(mtbf_s) else protected / mtbf_s
    rework = failures * (interval / 2.0)
    restart_overhead = failures * restart_s
    expected = protected + rework + restart_overhead
    return {
        "interval_s": interval,
        "n_checkpoints": n_ckpt,
        "checkpoint_overhead_s": ckpt_overhead,
        "expected_failures": failures,
        "rework_s": rework,
        "restart_overhead_s": restart_overhead,
        "expected_s": expected,
        "slowdown": expected / work_s,
    }


def overlapped_chunk_schedule(
    chunk_bcast: Sequence[float],
    chunk_compute: Sequence[float],
    chunk_reduce: Sequence[float],
    overlap_efficiency: float = 1.0,
    chunk_gen: Optional[Sequence[float]] = None,
    chunk_save: Optional[Sequence[float]] = None,
) -> Dict[str, float]:
    """Wall times of the serial vs double-buffered grid chunk schedule.

    Runs :func:`repro.util.timing.run_chunk_schedule` — the schedule
    ``ParallelFFTMatvec`` runs its chunks through — with callbacks that
    charge these scalars, so the dependency edges are the engine's by
    construction: comm stream ``bcast(0), bcast(1), reduce(0),
    bcast(2), reduce(1), …``; the compute stream waits on each chunk's
    broadcast event; each reduce waits on its chunk's compute event.
    ``overlap_efficiency < 1`` charges the exposed remainder of every
    *overlapped* collective — the prefetched broadcasts and the interior
    reduces — onto the compute stream (link contention), so at
    efficiency 0 the schedule converges back to the serial charge.
    Returns ``{"serial", "overlapped", "hidden"}`` — ``hidden`` is the
    saving.

    ``chunk_gen`` / ``chunk_save`` add the host stream of the
    three-stream fused schedule (source generation before each chunk's
    broadcast, result saving after its reduce).  The result then also
    carries ``{"serial3", "two_stream_host", "overlapped3",
    "hidden_host"}``: the all-serial wall, the two-stream schedule with
    the host work charged serially after it (a host-less engine's wall
    plus ``k * host.per_vector``), the fused three-stream wall — ``gen(i)``
    gates ``bcast(i)``, ``save(i)`` waits on ``reduce(i)``, host in
    order — and their difference.  Without host costs the extra keys
    degenerate (``serial3 == serial``, ``two_stream_host == overlapped3
    == overlapped``, ``hidden_host == 0``) so callers can read one
    schema unconditionally; the first three keys are unchanged either
    way.
    """
    n = len(chunk_compute)
    if not (n == len(chunk_bcast) == len(chunk_reduce)):
        raise ReproError(
            "chunk_bcast, chunk_compute and chunk_reduce must have equal length"
        )
    host_present = chunk_gen is not None or chunk_save is not None
    gen = list(chunk_gen) if chunk_gen is not None else [0.0] * n
    save = list(chunk_save) if chunk_save is not None else [0.0] * n
    if len(gen) != n or len(save) != n:
        raise ReproError(
            "chunk_gen and chunk_save must match the chunk count when given"
        )
    exposed = max(0.0, min(1.0, 1.0 - overlap_efficiency))

    def charging(costs: Sequence[float]):
        def charge(i: int, stream: Stream) -> float:
            stream.charge(costs[i])
            return costs[i]

        return charge

    def wall(**host: Sequence[float]) -> float:
        return run_chunk_schedule(
            None, range(n), charging(chunk_bcast), charging(chunk_compute),
            charging(chunk_reduce), exposed, **host,
        )

    overlapped = wall()
    serial = float(
        sum(chunk_bcast) + sum(chunk_compute) + sum(chunk_reduce)
    )
    host_total = float(sum(gen) + sum(save))
    two_stream_host = overlapped + host_total
    if host_present:
        overlapped3 = wall(gen=gen, save=save)
    else:
        overlapped3 = two_stream_host
    return {
        "serial": serial,
        "overlapped": overlapped,
        "hidden": serial - overlapped,
        "serial3": serial + host_total,
        "two_stream_host": two_stream_host,
        "overlapped3": overlapped3,
        "hidden_host": two_stream_host - overlapped3,
    }


def phase_times(
    nm: int,
    nd: int,
    nt: int,
    config: Union[str, PrecisionConfig],
    spec: GPUSpec,
    adjoint: bool = False,
    use_optimized_sbgemv: bool = True,
) -> Dict[str, float]:
    """Modeled seconds per phase of one local matvec (no communication).

    For the F matvec the FFT batch is ``nm`` (parameter side) and the
    IFFT batch is ``nd``; the adjoint swaps them.  The SBGEMV phase
    includes the two layout reorders, matching both the engine and the
    artifact note that "the SBGEMV time includes the SOTI-to-TOSI and
    TOSI-to-SOTI times".

    The single-vector special case of :func:`block_phase_times` — one
    definition of the per-phase traffic, so the vector and blocked
    models cannot drift apart.
    """
    return block_phase_times(
        nm,
        nd,
        nt,
        1,
        config,
        spec,
        adjoint=adjoint,
        use_optimized_sbgemv=use_optimized_sbgemv,
    )


def block_phase_times(
    nm: int,
    nd: int,
    nt: int,
    k: int,
    config: Union[str, PrecisionConfig],
    spec: GPUSpec,
    adjoint: bool = False,
    use_optimized_sbgemv: bool = True,
) -> Dict[str, float]:
    """Modeled seconds per phase of one blocked ``k``-RHS pipeline pass
    of an engine on the fast reduction.

    The SBGEMM counterpart of :func:`phase_times`: the sum, per phase,
    of :func:`~repro.gpu.device.price_launch` over the very list
    ``FFTMatvec._front`` / ``_back`` book for this shape
    (:func:`~repro.core.matvec.front_launches` /
    :func:`~repro.core.matvec.back_launches`), with Phase 3 decided
    where the engine's is (:meth:`SBGEMVDispatcher.phase3`; the
    ``use_optimized_sbgemv`` ablation is a dispatcher built with
    ``optimized=False``, as an engine holding one books it) — so
    a launch, a byte formula, a price or a dispatch rule changed in the
    engine is changed here by construction.  The ``k`` columns ride the
    batch axis of pad/FFT/reorder (one launch each, batch ``nx * k``),
    and Phase 3 is one per-frequency strided-batched GEMM — the blocked
    pipeline amortizes launch overhead and rereads the spectrum once
    instead of ``k`` times, and the scaling sweep should see that.  A
    lone column is the GEMV.  A consistency test pins every phase
    ``==`` the engine's charge.
    """
    check_positive_int(nm, "nm")
    check_positive_int(nd, "nd")
    check_positive_int(nt, "nt")
    check_positive_int(k, "k")
    cfg = PrecisionConfig.parse(config)
    nx_in = (nd if adjoint else nm) * k  # fused batch of the forward FFT
    nx_out = (nm if adjoint else nd) * k  # fused batch of the inverse FFT
    datatype = BlasDatatype.Z if cfg.sbgemv is Precision.DOUBLE else BlasDatatype.C
    operation = Operation.C if adjoint else Operation.N
    dispatcher = SBGEMVDispatcher(spec, optimized=use_optimized_sbgemv)
    phase3 = [dispatcher.phase3(nd, nm, nt + 1, k, datatype, operation)]
    times: Dict[str, float] = {}
    for phase, kernel in (
        front_launches(spec, nt, nx_in, cfg, phase3) + back_launches(spec, nt, nx_out, cfg)
    ):
        times[phase] = times.get(phase, 0.0) + price_launch(kernel, spec)
    return times


def modeled_timing(
    nm: int,
    nd: int,
    nt: int,
    config: Union[str, PrecisionConfig],
    spec: GPUSpec,
    adjoint: bool = False,
    use_optimized_sbgemv: bool = True,
) -> TimingReport:
    """Phase times wrapped in a :class:`TimingReport`."""
    cfg = PrecisionConfig.parse(config)
    direction = "F*" if adjoint else "F"
    return TimingReport(
        phases=phase_times(
            nm,
            nd,
            nt,
            cfg,
            spec,
            adjoint=adjoint,
            use_optimized_sbgemv=use_optimized_sbgemv,
        ),
        label=f"{cfg} {direction} {spec.name}",
    )
