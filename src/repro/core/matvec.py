"""The FFTMatvec engine: five-phase F / F* matvecs on one (simulated) GPU.

Algorithm (paper Section 2.4) for ``d = F m``:

1. **pad** — broadcast (trivial on one GPU) and zero-pad the input into
   the circulant embedding, converting to space-outer layout;
2. **fft** — batched real-to-complex FFT of every spatial point's time
   series (length ``2*Nt``, giving ``Nt+1`` frequencies);
3. **sbgemv** — per-frequency block-diagonal matvec
   ``d_hat[k] = F_hat[k] @ m_hat[k]`` as one strided-batched GEMV
   (batch ``Nt+1``), via the rocBLAS dispatcher;
4. **ifft** — batched complex-to-real inverse FFT of the outputs;
5. **unpad** — drop the padding, reduce across the process grid (a
   no-op here; see :mod:`repro.core.parallel`), return to time-outer
   layout.

``F* d`` runs the same pipeline with the conjugate-transpose SBGEMV and
input/output roles swapped.  Every phase computes in the precision its
:class:`~repro.core.precision.PrecisionConfig` assigns; casts are fused
into the adjacent memory operations; inputs and outputs are always
double precision (Section 3.2).  The spectrum ``F_hat`` is precomputed
in double precision at setup, with the ``1/(2*Nt)`` inverse-transform
normalization folded in.

**Blocked multi-RHS path** (:meth:`FFTMatvec.matmat` /
:meth:`FFTMatvec.rmatmat`): ``k`` right-hand sides flow through *one*
pipeline pass — one pad kernel, one batched FFT with batch ``k * space``,
a per-frequency strided-batched **GEMM** (``F_hat[f] @ M_hat[f]`` with
``M_hat[f]`` an ``(Nm, k)`` panel) via the same dispatcher, one inverse
FFT and one unpad.  The spectrum — the dominant Phase-3 traffic — is
read once instead of ``k`` times, and the per-call launch/plan overhead
of the other phases is paid once, which is where block solvers,
posterior sampling and OED sweeps get their speedup.
"""

from __future__ import annotations

import contextlib
import hashlib
from collections import OrderedDict
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend import Backend, host_empty, resolve_backend
from repro.blas.dispatch import SBGEMVDispatcher
from repro.blas.gemm_kernels import (
    gemm_checksum_rows,
    gemm_checksum_verify,
    gemm_strided_batched_reference,
    pairwise_gemm_strided_batched_reference,
    pairwise_segment_values,
)
from repro.blas.gemv_kernels import gemv_strided_batched_reference
from repro.blas.permute import permute3d
from repro.blas.types import BlasDatatype, Operation
from repro.core.phases import (
    pad_launch,
    pad_to_soti,
    padded_buffer,
    unpad_from_soti,
    unpad_launch,
)
from repro.core.precision import PrecisionConfig
from repro.core.reorder import reorder_launch, soti_to_tosi, tosi_to_soti
from repro.core.toeplitz import BlockTriangularToeplitz, spectral_condition_number
from repro.fft.plan import FFTPlan, FFTType
from repro.gpu.device import SimulatedDevice, price_launch
from repro.gpu.kernel import KernelLaunch
from repro.gpu.specs import GPUSpec
from repro.util import checksum as _chk
from repro.util.blocking import check_block, check_out_buffer
from repro.util.dtypes import Precision, cast_to, complex_dtype, real_dtype
from repro.util.timing import TimingReport
from repro.util.validation import ReproError
from repro.util.workspace import Workspace, apply_scope

__all__ = ["FFTMatvec", "front_launches", "back_launches"]

_PHASES = ("pad", "fft", "sbgemv", "ifft", "unpad")

_VALIDATE_MODES = ("guard", "abft")

# Byte budget of one slab buffer of the phase loops (``_front`` /
# ``_back``), i.e. of the ``(w, 2*Nt)`` padded rows the FFT reads or
# writes: 256 columns at Nt = 256 double, 512 single.  The host is
# bandwidth bound (memcpy 20.5 GB/s on one thread, 19.5 on two), so the
# lever is reading each intermediate back from the 2 MB L2; flat from
# 0.5 to 3 MiB.  An axis within 8 budgets stays whole: there the split
# only adds calls (a grid rank's 768-column chunk ran F 2.5 % slower in
# two slabs, block-CG's k = 8 blocks 5 %); it pays from about 8 MiB.
_SLAB_BYTES = 1 << 20


def _parse_validate(validate) -> frozenset:
    """Parse a ``validate=`` spec into its mode set.

    ``None``/``False``/``""`` mean no checks; a string is a
    ``"+"``-separated combination of ``"guard"`` (NaN/Inf at every
    five-phase boundary) and ``"abft"`` (checksum/energy verification of
    the compute phases).  ``True`` enables everything.
    """
    if validate is None or validate is False or validate == "":
        return frozenset()
    if validate is True:
        return frozenset(_VALIDATE_MODES)
    modes = frozenset(t for t in str(validate).split("+") if t)
    bad = modes - set(_VALIDATE_MODES)
    if bad:
        raise ReproError(
            f"unknown validate mode(s) {sorted(bad)}; pick from "
            f"{list(_VALIDATE_MODES)} joined with '+'"
        )
    return modes


def _slabs(rec: SimpleNamespace, *bufs: Any) -> list:
    """One ``(first, columns, *rows)`` entry per slab of a prepared
    record's fused axis: its slice of that axis (``None`` when one slab
    is all of it) and its leading rows of each ``(w, ...)`` scratch."""
    w, cols = rec.w, rec.cols
    return [
        (c0 == 0, None if w == cols else slice(c0, c0 + n))
        + tuple(b if b is None else b[:n] for b in bufs)
        for c0, n in ((c0, min(w, cols - c0)) for c0 in range(0, cols, w))
    ]


def front_launches(
    spec: GPUSpec, nt: int, cols: int, config: PrecisionConfig, phase3: Sequence[Tuple]
) -> List[Tuple[str, KernelLaunch]]:
    """The ``(clock phase, launch)`` pairs phases 1-3 book on ``spec`` for
    ``cols`` fused columns of double input, in booking order: one
    full-width pad, FFT and forward reorder, then one launch per
    ``(kernel, problem)`` of ``phase3`` (:meth:`SBGEMVDispatcher.phase3`;
    ``k`` GEMVs for a kernel that runs a column at a time).
    :meth:`FFTMatvec._front` books this list and the perf model prices
    it, so a launch added here is in both."""
    n_freq = nt + 1
    fft = FFTPlan(2 * nt, cols, FFTType.real_forward(config.fft))
    c_fft, c_sb = complex_dtype(config.fft).itemsize, complex_dtype(config.sbgemv).itemsize
    return [
        ("pad", pad_launch(spec, nt, cols, 8, config.pad)),
        ("fft", fft.launch(spec)),
        ("sbgemv", reorder_launch(spec, "reorder_soti_to_tosi", n_freq * cols, c_fft, c_sb)),
    ] + [("sbgemv", kernel.launch(problem, spec)) for kernel, problem in phase3]


def back_launches(
    spec: GPUSpec, nt: int, cols: int, config: PrecisionConfig
) -> List[Tuple[str, KernelLaunch]]:
    """Phases 4-5's counterpart of :func:`front_launches`
    (:meth:`FFTMatvec._back`): the backward reorder, the IFFT and the
    unpad of ``cols`` fused output columns."""
    n_freq = nt + 1
    ifft = FFTPlan(2 * nt, cols, FFTType.real_inverse(config.ifft))
    c_sb, c_ifft = complex_dtype(config.sbgemv).itemsize, complex_dtype(config.ifft).itemsize
    r_ifft, r_unpad = real_dtype(config.ifft).itemsize, real_dtype(config.unpad).itemsize
    return [
        ("sbgemv", reorder_launch(spec, "reorder_tosi_to_soti", n_freq * cols, c_sb, c_ifft)),
        ("ifft", ifft.launch(spec)),
        ("unpad", unpad_launch(spec, nt, cols, r_ifft, r_unpad)),
    ]


class FFTMatvec:
    """FFT-based matvec engine for a block lower-triangular Toeplitz matrix.

    Parameters
    ----------
    matrix:
        A :class:`BlockTriangularToeplitz` or a raw ``(Nt, Nd, Nm)``
        kernel-block array.
    device:
        Optional :class:`SimulatedDevice`; when given, every phase
        charges modeled time to the device clock and ``last_timing``
        holds the per-phase breakdown of the most recent call.
    use_optimized_sbgemv:
        Handed to the dispatcher: when False it selects the original
        rocBLAS kernels for the (conjugate) transpose too — the
        pre-optimization behaviour used in ablation benches.  Like the
        device itself it changes what an apply books, never its bits.
    workspace:
        ``True`` builds a private :class:`Workspace` arena (registered
        with the device allocator when a device is attached), a
        :class:`Workspace` instance is used as given, ``None``/``False``
        keeps the allocate-per-call reference path.  With an arena every
        phase of the pipeline writes into persistent checked-out
        buffers — numerics are bitwise-identical either way; only the
        allocation behaviour changes.
    backend:
        Array backend for the hot path: a :class:`Backend` instance, a
        name (``"numpy"``/``"cupy"``/``"torch"``, explicit mode — raises
        when unavailable), or ``None`` to follow ``REPRO_BACKEND``
        (default ``auto``: cupy → torch → numpy).  Inputs and outputs
        stay host float64 on every backend.
    reduction:
        ``"fast"`` (default) lets Phase 3 accumulate in whatever order
        the selected BLAS kernel's tiling produces.  ``"pairwise"``
        pins the fixed binary-tree order of :mod:`repro.util.pairwise`
        instead: vector and blocked applies become bitwise-identical at
        any block width (``matvec`` routes through the width-1 blocked
        pipeline), and on the grid engine any contraction-axis
        partition — including width-1 parts — reproduces the same bits.
        Costs the modeled determinism tax of
        :class:`~repro.blas.gemm_kernels.PairwiseSBGEMM`.
    validate:
        SDC defense checks, off by default.  ``"guard"`` runs the
        NaN/Inf numerical-health guard at every five-phase boundary
        (raising :class:`~repro.util.checksum.NumericalHealthError`);
        ``"abft"`` verifies each compute phase algebraically — Parseval
        energy checks after the FFT/IFFT, Huang–Abraham column checksums
        after the SBGEMM panel — raising
        :class:`~repro.util.checksum.SilentCorruption` on mismatch.
        Combine with ``"guard+abft"`` (or ``True``).  Installing a
        :class:`~repro.comm.fault.CorruptionSchedule` implies the
        ``abft`` checks, so every injected flip has a detector armed.
    """

    def __init__(
        self,
        matrix: Union[BlockTriangularToeplitz, np.ndarray],
        device: Optional[SimulatedDevice] = None,
        use_optimized_sbgemv: bool = True,
        workspace: Union[None, bool, Workspace] = None,
        backend: Union[None, str, Backend] = None,
        reduction: str = "fast",
        validate: Union[None, bool, str] = None,
    ) -> None:
        if reduction not in ("fast", "pairwise"):
            raise ReproError(
                f"reduction must be 'fast' or 'pairwise', got {reduction!r}"
            )
        self.reduction = reduction
        self.validate_modes = _parse_validate(validate)
        self.rank_label: Optional[int] = None  # grid rank, set by the owner
        self._plans: "OrderedDict[Tuple, SimpleNamespace]" = OrderedDict()
        self.install_corruption_schedule(None)  # no schedule yet: sets the hook flags
        self.sdc_checks = 0  # abft/energy verifications that passed
        self.matrix = (
            matrix
            if isinstance(matrix, BlockTriangularToeplitz)
            else BlockTriangularToeplitz(np.asarray(matrix))
        )
        self.backend = resolve_backend(backend)
        self.device = device
        self.nt = self.matrix.nt
        self.nd = self.matrix.nd
        self.nm = self.matrix.nm
        self.n_pad = 2 * self.nt
        self.n_freq = self.nt + 1

        spec = device.spec if device is not None else None
        self.dispatcher = (
            SBGEMVDispatcher(spec, optimized=use_optimized_sbgemv) if spec is not None else None
        )

        # Setup: F_hat in double precision (one-time, not perf-critical),
        # with the 1/(2*Nt) inverse normalization folded in.  The host
        # double copy is authoritative; per-precision backend copies are
        # cached lazily in spectrum().
        self._fhat_host = self._setup_spectrum()
        self._fhat: Dict[Precision, Any] = {}
        self._kappa: Optional[float] = None  # condition_number_hat(), on first use
        self.setup_time = (
            self.device.clock.phase_total("setup") if self.device is not None else 0.0
        )

        self.plan_evictions = 0  # prepared records dropped by the LRU bound
        self.last_timing: Optional[TimingReport] = None
        self.matvec_count = 0
        self.matmat_count = 0
        self.cast_noop_count = 0  # phase boundaries crossed without a cast pass
        self._ref_cache: Dict[Tuple[bool, Tuple[int, ...], bytes], np.ndarray] = {}
        self._fhat_conj: Dict[Precision, Any] = {}
        self._abft_rows: Dict[Tuple[Precision, Operation], Tuple[Any, np.ndarray]] = {}
        if workspace is True:
            workspace = Workspace(
                allocator=device.allocator if device is not None else None,
                name="fftmatvec",
                backend=self.backend,
            )
        elif workspace is False:
            workspace = None
        elif workspace is not None and workspace.backend.name != self.backend.name:
            raise ReproError(
                f"workspace backend {workspace.backend.name!r} does not match "
                f"engine backend {self.backend.name!r}"
            )
        self.workspace: Optional[Workspace] = workspace
        if workspace is not None:  # records hold arena buffers: none survive it
            workspace.release_hooks.append(self._plans.clear)

    # -- setup -----------------------------------------------------------------
    def _setup_spectrum(self) -> np.ndarray:
        """Precompute F_hat (always double precision, Section 3.2).

        Follows the real code's data flow: the kernel blocks arrive
        lag-major ``(Nt, Nd, Nm)``; the batched FFT wants lag-contiguous
        ``(Nd, Nm, 2*Nt)``, and the strided-batched GEMV wants
        frequency-major ``(Nt+1, Nd, Nm)`` — two 3-D permutations around
        the FFT.  These are the permutations cuTENSOR performed in the
        original CUDA code and the custom kernel performs after
        hipification (see :mod:`repro.blas.permute`).
        """
        dev = self.device
        with dev.clock.phase("setup") if dev is not None else contextlib.nullcontext():
            padded = self.matrix.padded_kernel()  # (2*Nt, Nd, Nm), lag-major
            # (2Nt, Nd, Nm) -> (Nd, Nm, 2Nt): lags contiguous for the FFT.
            lag_inner = permute3d(
                padded, (1, 2, 0), device=self.device, phase="setup"
            )
            plan = FFTPlan(
                n=self.n_pad,
                batch=self.nd * self.nm,
                fft_type=FFTType.D2Z,
                device=self.device,
            )
            spec = plan.execute(
                lag_inner.reshape(self.nd * self.nm, self.n_pad), phase="setup"
            ).reshape(self.nd, self.nm, self.n_freq)
            # (Nd, Nm, Nt+1) -> (Nt+1, Nd, Nm): frequency-major for SBGEMV.
            freq_major = permute3d(
                spec, (2, 0, 1), device=self.device, phase="setup"
            )
            scale = 1.0 / float(self.n_pad)  # fold in the IFFT normalization
            return (freq_major * scale).astype(np.complex128)

    def _fhat_double_for_tests(self) -> np.ndarray:
        """The double-precision host spectrum (test hook)."""
        return self._fhat_host

    def condition_number_hat(self) -> float:
        """The kappa(F_hat) of Eq. (6), computed once from the double
        spectrum this engine holds (no second FFT of the kernel)."""
        if self._kappa is None:
            self._kappa = spectral_condition_number(self._fhat_host)
        return self._kappa

    # -- cached resources ----------------------------------------------------
    def spectrum(self, precision: Precision) -> Any:
        """F_hat at the requested precision on the engine backend
        (single copy cached lazily; identity for numpy double)."""
        precision = Precision.parse(precision)
        if precision not in self._fhat:
            self._fhat[precision] = self.backend.asarray(
                cast_to(self._fhat_host, precision)
            )
        return self._fhat[precision]

    def spectrum_conj(self, precision: Precision) -> Any:
        """The conjugated spectrum at the requested precision, cached.

        The adjoint GEMM applies the conjugated spectrum on every
        iteration; caching the exact bytes a fresh conjugation would
        produce keeps repeated adjoint applies from re-materializing the
        largest array on the hot path, with bitwise-unchanged results.
        """
        precision = Precision.parse(precision)
        if precision not in self._fhat_conj:
            self._fhat_conj[precision] = self.backend.conjugate(
                self.spectrum(precision)
            )
        return self._fhat_conj[precision]

    def checksum_rows(
        self, precision: Precision, operation: Operation
    ) -> Tuple[Any, np.ndarray]:
        """The ABFT checksum rows ``(e^T op(F_hat), e^T |op(F_hat)|)``, cached.

        Taken from the spectrum on first use and kept, like
        :meth:`spectrum_conj`: every later check then compares the
        panel against what the *clean* spectrum implies, so a bit that
        flips in the live spectrum afterwards breaks the identity
        instead of moving both of its sides together.
        """
        precision, op = Precision.parse(precision), Operation.parse(operation)
        if (precision, op) not in self._abft_rows:
            self._abft_rows[precision, op] = gemm_checksum_rows(
                self.spectrum(precision),
                op,
                a_conj=self.spectrum_conj(precision) if op is Operation.C else None,
                backend=self.backend,
            )
        return self._abft_rows[precision, op]

    # Bound on the cache of prepared-apply records (:meth:`_prepared`), one
    # per (half, Phase-3 kernel, direction, config, fused width), each
    # holding its FFT plan.  Under serving load the width varies with
    # every coalesced block, so an unbounded dict would grow one record
    # per (k, config) ever seen; least-recently-used records are dropped
    # past this size (per instance — override the attribute to tune).
    plan_cache_size = 32

    def _prepared(
        self, key: Tuple, back: bool, config: PrecisionConfig, adjoint: bool, n: int, k: int
    ) -> SimpleNamespace:
        """The record under ``key`` of what the data does not decide about
        one half of an apply, resolved on first use: the half's FFT plan,
        tier dtypes, slab width, — with an arena — its buffers and their
        per-slab views (``bufs``) and — with a device — the launches it
        books, priced (``booked``: :func:`front_launches` /
        :func:`back_launches` as ``SimulatedDevice.book`` arguments; an
        invalid launch raises here and leaves no record); the Phase-3
        kernel adds its operands on first run (``p3``), the back half
        its arena result (``res``).  A record dies with what it was
        built from: the LRU bound, ``Workspace.release()`` and
        :meth:`install_corruption_schedule` drop it.
        """
        rec = self._plans.get(key)
        if rec is not None:
            self._plans.move_to_end(key)
            return rec
        fft = config.ifft if back else config.fft
        rdt, cols = real_dtype(fft), n * k
        fft_type = FFTType.real_inverse(fft) if back else FFTType.real_forward(fft)
        rec = SimpleNamespace(
            n=n, k=k, cols=cols, rdt=rdt, cdt=complex_dtype(fft), p3=None, res=None, booked=None,
            w=self._slab_cols(cols, 2 * self.nt * rdt.itemsize),
            plan=FFTPlan(self.n_pad, cols, fft_type, backend=self.backend),
        )
        if back:
            rec.udt = real_dtype(config.unpad)
        else:
            rec.operation = Operation.C if adjoint else Operation.N
            rec.precision = config.sbgemv
            rec.sdt = complex_dtype(config.sbgemv)
            # The input is double, so a double pad writes the FFT's tier
            # directly: one rounding, the one "pad in double, then cast"
            # would make.  Only a single pad feeding a double FFT needs a
            # cast pass of its own (it must round before the up-cast); the
            # other boundaries ride a pass that moves the data anyway, and
            # ``cast_noop_count`` counts them.
            rec.pad_dt = rdt if config.pad is Precision.DOUBLE else real_dtype(config.pad)
            rec.noops = 2 if rec.pad_dt == rdt else 1
        if self.device is not None:
            spec = self.device.spec
            if back:
                launches = back_launches(spec, self.nt, cols, config)
            else:
                # The panel kernel runs Phase 3 a column at a time (its
                # engine is never pairwise: see _pipeline_block).
                runs = k if key[0] is FFTMatvec._run_sbgemv_panel else 1
                phase3 = self.dispatcher.phase3(
                    self.nd, self.nm, self.n_freq, k // runs,
                    BlasDatatype.from_dtype(rec.sdt), rec.operation, self.reduction,
                )
                rec.counted = (phase3[0].name, runs)
                launches = front_launches(spec, self.nt, cols, config, [phase3] * runs)
            rec.booked = [
                (launch, price_launch(launch, spec), phase) for phase, launch in launches
            ]
        buffers = self._back_buffers if back else self._front_buffers
        rec.bufs = buffers(rec) if self.workspace is not None else None
        self._plans[key] = rec
        limit = max(1, int(self.plan_cache_size))
        while len(self._plans) > limit:
            self._plans.popitem(last=False)
            self.plan_evictions += 1
        return rec

    def geometry_key(
        self, config: Union[None, str, PrecisionConfig] = None
    ) -> Tuple:
        """Stable, hashable fingerprint of this engine's geometry.

        Two engines with equal keys run the same five-phase shapes:
        problem extents, padded/frequency lengths, backend name and the
        simulated device (None without one).  ``config`` folds a
        precision configuration into the key for callers that cache per
        config.  The serving layer's coalescer and
        :class:`~repro.serve.cache.EngineCache` group requests by this
        key (plus the kernel-content digest — geometry says nothing
        about the Toeplitz blocks' values).

        The reduction mode is part of the key: a fast-mode and a
        pairwise-mode engine produce different bits for the same
        operator, so the serving layer must never coalesce their
        requests or share a cached engine between them.
        """
        return (
            "FFTMatvec",
            self.nt,
            self.nd,
            self.nm,
            self.n_pad,
            self.n_freq,
            self.backend.name,
            self.device.spec.name if self.device is not None else None,
            self.reduction,
            str(PrecisionConfig.parse(config)) if config is not None else None,
        )

    # -- Phase 3: numerics only (what they book is the record's) ---------------
    def _phase3_operands(self, rec, out=None, stage=None, conj_a: bool = False) -> Tuple:
        """Phase 3's ``(fhat, a_conj, out, staging)``, resolved by a kernel's
        first run on the front record ``rec`` and kept there: the spectrum
        at its tier, the cached conjugate for an adjoint GEMM and — from
        an arena — the ``(tag, shape)`` output and input staging."""
        if rec.p3 is None:
            fhat, ws = self.spectrum(rec.precision), self.workspace
            dt = self.backend.dtype_of(fhat)
            rec.p3 = (
                fhat,
                self.spectrum_conj(rec.precision) if conj_a and rec.operation is Operation.C else None,
                ws.checkout(*out, dt) if ws is not None and out else None,
                ws.checkout(*stage, dt) if ws is not None and stage else None,
            )
        return rec.p3

    def _run_sbgemv(self, panel: Any, rec: SimpleNamespace) -> Any:
        """Vector Phase 3: the strided-batched GEMV on the lone column of
        an ``(n_freq, nx, 1)`` panel, returned as an ``(n_freq, ny, 1)`` one."""
        be, operation, mhat = self.backend, rec.operation, panel[:, :, 0]
        adj = operation is Operation.C
        fhat, _, out, x_conj = rec.p3 or self._phase3_operands(
            rec,
            ("sbgemv_out", (self.n_freq, self.nm if adj else self.nd)),
            ("sbgemv_conj_x", tuple(mhat.shape)) if adj else None,
        )
        if x_conj is not None:
            # Stage the adjoint's conj(x) in the arena — bitwise the bytes
            # a fresh conjugation would produce, no per-apply temporary.
            be.conjugate(mhat, out=x_conj)
        yhat = gemv_strided_batched_reference(
            fhat, mhat, operation, out=out, x_conj=x_conj, backend=be
        )
        return yhat.reshape(yhat.shape + (1,))

    def _run_sbgemm(self, mhat: Any, rec: SimpleNamespace) -> Any:
        """Blocked Phase 3: per-frequency GEMM on a (n_freq, nx, k) panel.

        Honors the engine's ``reduction`` mode: pairwise engines run the
        fixed-tree kernel at every entry point (including the ``k == 1``
        panel a fast engine books as a GEMV), so one accumulation order
        serves the whole engine.
        """
        be, operation = self.backend, rec.operation
        # The conjugated spectrum is cached for the adjoint (op C): the
        # bytes match a fresh conjugation, so results are bitwise-unchanged.
        fhat, a_conj, out, _ = rec.p3 or self._phase3_operands(
            rec,
            ("sbgemm_out", (self.n_freq, self.nd if operation is Operation.N else self.nm, mhat.shape[2])),
            conj_a=True,
        )
        if self.reduction == "pairwise":
            return pairwise_gemm_strided_batched_reference(
                fhat, mhat, operation, out=out, a_conj=a_conj, backend=be,
                workspace=self.workspace,
            )
        return gemm_strided_batched_reference(
            fhat, mhat, operation, out=out, a_conj=a_conj, backend=be
        )

    def _run_sbgemm_pairwise_segments(
        self, panel: Any, rec: SimpleNamespace, start: int, n_global: int
    ) -> Dict[Tuple[int, int], Any]:
        """Phase 3 for a grid rank in pairwise mode: canonical segments.

        Instead of this rank's full local contraction (whose grouping
        would depend on the local width), compute the partial panel of
        every canonical tree segment of the rank's global range
        ``[start, start + nx)`` within an axis of length ``n_global``.
        The grid engine merges all ranks' segments in frequency domain
        (:func:`repro.comm.collectives.fixed_tree_reduce_segments`), so
        the full contraction is one fixed tree regardless of partition.
        Booked as the local pairwise kernel's launch.
        """
        fhat, a_conj, _, _ = rec.p3 or self._phase3_operands(rec, conj_a=True)
        return pairwise_segment_values(
            fhat, panel, rec.operation, start, n_global, a_conj=a_conj,
            backend=self.backend, workspace=self.workspace,
        )

    def _run_sbgemv_panel(self, mhat: Any, rec: SimpleNamespace) -> Any:
        """Deterministic blocked Phase 3: k per-frequency GEMVs on a panel.

        ``mhat`` is the ``(n_freq, nx, k)`` panel :meth:`_run_sbgemm`
        would consume; column ``j`` of the result carries **bitwise** the
        bytes :meth:`_run_sbgemv` produces for column ``j`` alone.  The
        blocked GEMM does not have that property — its accumulation
        order over the shared ``nx`` contraction differs from the GEMV's
        — so serving-layer coalescing, which promises results identical
        to sequential applies, routes through this method instead.

        On the numpy backend the k GEMVs run as one broadcast-batched
        matmul over per-column views (~2.5-6x faster than looping
        Python-side); other backends loop the columns through
        :meth:`_run_sbgemv`.  Either way a device books k GEMV launches
        — the price of determinism the docs advertise.
        """
        be, operation = self.backend, rec.operation
        nf, nx, k = mhat.shape
        adj = operation is Operation.C
        ny = self.nm if adj else self.nd
        looped = be.name != "numpy"
        # numpy picks its matmul loop by the operands' strides, so the
        # columns are handed over as a lone GEMV has them — contiguous —
        # wherever the strided view would take another loop: conj(x) of
        # the adjoint, and a forward panel whose output has one row.
        staged = not looped and (adj or ny == 1)
        fhat, _, out, xbuf = rec.p3 or self._phase3_operands(
            rec,
            ("det_sbgemv_out", (nf, ny, k)),
            ("det_sbgemv_conj_x" if adj else "det_sbgemv_x", (k, nf, nx)) if staged else None,
        )
        if out is None:
            out = be.empty((nf, ny, k), be.dtype_of(mhat))
        if looped:
            for j in range(k):  # a column's own operands, as a lone GEMV has them
                col = SimpleNamespace(operation=operation, precision=rec.precision, p3=None)
                out[:, :, j : j + 1] = self._run_sbgemv(mhat[:, :, j : j + 1], col)
            return out
        cols = np.moveaxis(mhat, 2, 0)  # (k, nf, nx) strided view
        out_v = np.moveaxis(out, 2, 0)  # (k, nf, ny) strided view
        if staged:
            if xbuf is None:
                xbuf = be.empty((k, nf, nx), be.dtype_of(mhat))
            if adj:
                be.conjugate(cols, out=xbuf)
            else:
                be.copyto(xbuf, cols)
            cols = xbuf
        if not adj:
            # One GEMV per (column, frequency): (1,nf,ny,nx) @ (k,nf,nx,1).
            be.matmul(fhat[None], cols[..., None], out=out_v[..., None])
            return out
        # Adjoint GEMV per column: conj(conj(x)^T A), conjugated in
        # place after the write.  The contraction runs as matrix-vector
        # against the transposed spectrum *view* — same strided gufunc
        # accumulation as the row-vector form (bitwise-identical, the
        # coalescing tests assert it), but measurably faster; a
        # contiguous copy of the transpose would flip numpy into a BLAS
        # path with a different summation order and break the identity.
        fhat_t = be.transpose(fhat, (0, 2, 1))
        be.matmul(fhat_t[None], cols[..., None], out=out_v[..., None])
        be.conjugate(out, out=out)
        return out

    # -- SDC defense: injection sites and algebraic checks ---------------------
    def install_corruption_schedule(
        self, schedule, rank: Optional[int] = None
    ) -> None:
        """Arm (or disarm, with ``None``) seeded device-buffer corruption.

        The schedule's shared event counter advances at this engine's
        FFT / SBGEMM / IFFT stages; when an event index is scheduled,
        the freshly computed stage buffer gets one bit flipped — and the
        abft checks (implied by an armed schedule) are expected to catch
        it immediately after.  ``rank`` labels this engine's position in
        a grid for error messages.
        """
        self._corruption = schedule
        if rank is not None:
            self.rank_label = int(rank)
        self._abft_on = "abft" in self.validate_modes or schedule is not None
        self._guard_on = "guard" in self.validate_modes
        self._armed = self._abft_on or self._guard_on  # any hook at all
        self._plans.clear()  # armed hooks want whole buffers: prepare anew

    def _corruption_where(self) -> str:
        return (
            "engine" if self.rank_label is None else f"engine_rank{self.rank_label}"
        )

    def _maybe_corrupt(self, buf: Any, stage: str) -> None:
        """Device-site injection: flip one bit of a freshly computed
        stage result — a buffer, or the pairwise path's segment table —
        if the armed schedule fires at this event."""
        sched = self._corruption
        if sched is None:
            return
        if sched.on_event(stage, self._corruption_where()) is None:
            return
        if isinstance(buf, dict):
            _chk.flip_table_bit(buf, sched.element_index(1 << 30), bit=sched.bit)
            return
        arr = np.asarray(buf)
        floats = int(arr.size) * (2 if arr.dtype.kind == "c" else 1)
        _chk.flip_bit(arr, sched.element_index(max(1, floats)), bit=sched.bit)

    def _guard_check(self, arr: Any, phase: str) -> None:
        if self._guard_on:
            for part in arr.values() if isinstance(arr, dict) else (arr,):
                _chk.ensure_finite(
                    self.backend.from_device(part), phase=phase, rank=self.rank_label
                )

    def _check_forward_energy(self, x: Any, xhat: Any, plan: FFTPlan) -> None:
        if self._abft_on:
            plan.verify_forward_energy(x, xhat, phase="fft", rank=self.rank_label)
            self.sdc_checks += 1

    def _check_inverse_energy(self, xhat: Any, y: Any, plan: FFTPlan) -> None:
        if self._abft_on:
            plan.verify_inverse_energy(xhat, y, phase="ifft", rank=self.rank_label)
            self.sdc_checks += 1

    def _check_gemm(
        self, panel: Any, result: Any, operation: Operation, precision: Precision
    ) -> None:
        """ABFT column-checksum verification of a Phase-3 result.

        ``result`` is the ``(n_freq, ny, k)`` output panel, or a grid
        rank's canonical-segment table: the segments tile the rank's
        whole contraction range, so their column sums must add up to
        the same checksum row as the undivided local GEMM — one check
        covers every segment.  The row itself comes from
        :meth:`checksum_rows`, not from the live spectrum.
        """
        if not self._abft_on:
            return
        gemm_checksum_verify(
            self.spectrum(precision),
            panel,
            operation,
            result,
            backend=self.backend,
            phase="sbgemv",
            rank=self.rank_label,
            context="pairwise segments" if isinstance(result, dict) else "",
            rows=self.checksum_rows(precision, operation),
        )
        self.sdc_checks += 1

    # -- the five-phase pipeline -----------------------------------------------
    def _slab_cols(self, cols: int, row_bytes: int) -> int:
        """Columns per slab of a phase loop over ``cols`` fused columns
        of ``row_bytes`` padded bytes each: what ``_SLAB_BYTES`` holds,
        or all of them when that is few (see there) or something needs
        whole buffers — abft / guard checks and injection see, count and
        index each stage buffer once per apply; a device backend's cache
        is not this host's."""
        whole = self._armed or self.backend.name != "numpy"
        if whole or cols * row_bytes <= 8 * _SLAB_BYTES:
            return cols
        return max(1, _SLAB_BYTES // row_bytes)

    def _scratch(self, tag: str, shape: Tuple[int, ...], dtype: Any) -> Any:
        """A buffer for this apply: the arena's ``tag`` slot, else fresh."""
        if self.workspace is None:
            return self.backend.empty(shape, dtype)
        return self.workspace.checkout(tag, shape, dtype)

    def _finalize(
        self, res: Any, out: Optional[np.ndarray], detach: bool = True
    ) -> Any:
        """Return the pipeline result as float64.

        ``res`` is the unpad output (possibly an arena buffer, possibly
        already ``out`` itself).  Without a workspace and without ``out``
        this is the historical ``astype(float64, copy=False)``; with a
        workspace the result is *detached* from the arena (copied) so the
        caller can hold it across subsequent applies.  ``detach=False``
        skips that copy for internal callers (the grid engine) that
        consume the result before the next apply on this engine; on a
        device backend the undetached result stays a backend array.

        Caller-facing results (``out`` given, or detached) are always
        host float64, whatever the compute backend.
        """
        be = self.backend
        if out is None:
            if self.workspace is None and not detach:
                return be.astype(res, np.float64, copy=False)
            if self.workspace is None:
                return be.from_device(be.astype(res, np.float64, copy=False))
            if not detach:
                if be.dtype_of(res) == np.float64:
                    return res
                buf = self.workspace.checkout("final64", tuple(res.shape), np.float64)
                buf[...] = res
                return buf
            host = host_empty(tuple(res.shape), np.float64)
            host[...] = be.from_device(res)
            return host
        out[...] = be.from_device(res).reshape(out.shape)
        return out

    # -- the five-phase pipeline: one front half, one back half -----------------
    # Every apply is front + back on a (Nt, nx, k) block.  The split sits
    # where the grid's pairwise mode needs it: the IFFT does not
    # distribute over addition bitwise, so a partition-invariant grid
    # apply must reduce in *frequency domain* (where the contraction
    # lives) and run phases 4-5 exactly once per output part.  Phases 1-2
    # are per-column batch-independent and the spectrum slices are bitwise
    # slices of the global spectrum (per-(d,m) lag FFTs in
    # _setup_spectrum), which is what makes a rank's front bitwise-equal
    # to the corresponding slice of a single-device front.

    def _front_buffers(self, rec: SimpleNamespace) -> Tuple[list, Any]:
        """The front half's slabs — pad, cast and FFT-output rows, then
        the slab's columns of ``fwd_reorder`` — and the Phase-3 panel.
        With an arena these are the record's (``bufs``: the checkouts a
        half used to make per apply, same tags, shapes and order);
        without one every apply allocates its own."""
        nt, w = self.nt, rec.w
        xbuf = padded_buffer(w, nt, rec.pad_dt, self.workspace, self.backend)
        cbuf = self._scratch("cast_fft", (w, 2 * nt), rec.rdt) if rec.pad_dt != rec.rdt else None
        fbuf = self._scratch("fft_out", (w, self.n_freq), rec.cdt) if w < rec.cols else None
        vhat = self._scratch("fwd_reorder", (self.n_freq, rec.cols), rec.sdt)
        slabs = [s + (vhat if s[1] is None else vhat[:, s[1]],) for s in _slabs(rec, xbuf, cbuf, fbuf)]
        return slabs, vhat.reshape(self.n_freq, rec.n, rec.k)

    def _back_buffers(self, rec: SimpleNamespace) -> list:
        """The back half's slabs: ``bwd_reorder`` and IFFT-output rows."""
        w = rec.w
        ybuf = self._scratch("bwd_reorder", (w, self.n_freq), rec.cdt)
        tbuf = self._scratch("ifft_out", (w, 2 * self.nt), rec.rdt) if w < rec.cols else None
        return _slabs(rec, ybuf, tbuf)

    def _unpad_buffer(self, rec: SimpleNamespace) -> Any:
        """The back half's own ``(Nt, cols)`` result buffer — asked for
        only by an apply that cannot unpad into its caller's ``out``,
        and only once the IFFT's output exists: asking earlier cost
        glibc ~1000 more page faults per engine build."""
        if rec.res is not None:
            return rec.res
        res = self._scratch("unpad", (self.nt, rec.cols), rec.udt)
        if self.workspace is not None:
            rec.res = res
        return res

    def _front(
        self,
        v_in: np.ndarray,
        config: PrecisionConfig,
        adjoint: bool,
        kernel: Callable[..., Any],
        *kernel_args: Any,
    ) -> Any:
        """Phases 1-3 on a ``(Nt, nx, k)`` block; returns Phase 3's result.

        Owns the ``pad`` and ``fft`` clock phases and the head of
        ``sbgemv``; the ``cast_fft`` cast (``sd...`` configs only) and
        the ``fwd_reorder`` arena tag; the forward Parseval check and the
        Phase-3 ABFT check, each behind its injection site and followed
        by the guard.  ``kernel(self, panel, rec, *kernel_args)`` — the
        Phase-3 kernel (an unbound method) on the ``(n_freq, nx, k)``
        panel — is the only thing the entry points vary; it returns the
        ``(n_freq, ny, k)`` output panel, or a canonical-segment table
        on the grid front.

        The k columns ride along as an extra inner dimension of the
        "space" axis: pad/FFT/reorder treat ``nx * k`` fused columns (the
        batched kernels are agnostic), and only Phase 3 unflattens them
        into per-frequency (nx, k) panels.

        Pad -> FFT -> reorder runs **slab by slab** over those columns
        (:meth:`_slab_cols`): a slab is padded into one reused
        ``(w, 2*Nt)`` buffer, transformed into a ``(w, n_freq)`` scratch
        and transposed straight into its columns of ``fwd_reorder``, so
        no full-width padded buffer or FFT output exists and the
        intermediates are read back from L2.  FFT rows are independent
        and the rest are copies: the bits are those of one whole-width
        pass, which is this loop with one slab.  The modeled device runs
        each phase as one full-width kernel; the first slab books it.

        What the data does not decide comes from the prepared record
        (:meth:`_prepared`); the loop runs kernels and, with a device or
        an armed hook, books the record's launches (``booked``, entry
        ``i`` right behind the kernel it describes) and runs the checks.
        """
        nt, nx, k = v_in.shape
        rec = self._prepared((kernel, adjoint, config.code, nx * k), False, config, adjoint, nx, k)
        slabs, panel = rec.bufs or self._front_buffers(rec)
        be, ws, plan, armed, booked = self.backend, self.workspace, rec.plan, self._armed, rec.booked
        v2 = v_in.reshape(nt, rec.cols)
        self.cast_noop_count += rec.noops
        for first, sl, xbuf, cbuf, fbuf, vslab in slabs:
            dev = self.device if first else None
            # Phase 1: broadcast (trivial single-device) + zero-pad, in
            # the phase's precision (cast fused into the kernel's writes).
            x = pad_to_soti(
                v2 if sl is None else v2[:, sl],
                config.pad,
                out=xbuf,
                backend=be,
                validate=self._guard_on,
                rank=self.rank_label,
            )
            if dev is not None:
                dev.book(*booked[0])
            # Phase 2: batched forward FFT (batch = k * space).
            if cbuf is not None:
                cbuf[...] = x
                x = cbuf
            xhat = plan.execute(x, phase="fft" if first else None, workspace=ws, out=fbuf)
            if dev is not None:
                dev.book(*booked[1])
            if armed:
                self._maybe_corrupt(xhat, "fft")
                self._check_forward_energy(x, xhat, plan)
                self._guard_check(xhat, "fft")
            # Reorder to frequency-outer layout, written at Phase 3's
            # precision: the value "reorder at the lower adjacent
            # precision, then cast" gives (a down-cast rounds once, an
            # up-cast is exact), without the second pass.
            soti_to_tosi(xhat, backend=be, out=vslab)
            if dev is not None:
                dev.book(*booked[2])

        yhat = kernel(self, panel, rec, *kernel_args)
        if booked is not None:
            for entry in booked[3:]:
                self.device.book(*entry)
            name, launches = rec.counted
            self.dispatcher.dispatch_counts[name] += launches
        if armed:
            self._maybe_corrupt(yhat, "sbgemm")
            self._check_gemm(panel, yhat, rec.operation, config.sbgemv)
            self._guard_check(yhat, "sbgemv")
        return yhat

    def _back(
        self,
        yhat: Any,
        config: PrecisionConfig,
        adjoint: bool,
        out: Optional[np.ndarray],
        detach: bool,
    ) -> np.ndarray:
        """Phases 4-5 on an ``(n_freq, ny, k)`` frequency panel; returns
        the float64 ``(Nt, ny, k)`` result (see :meth:`_finalize`).

        Owns the tail of the ``sbgemv`` clock phase (the reorder back to
        space-outer, arena tag ``bwd_reorder``, written at the IFFT's
        precision like the forward reorder) and the ``ifft`` and
        ``unpad`` phases; the inverse Parseval check behind its
        injection site, followed by the guard.

        Slab by slab like :meth:`_front`, from a prepared record like
        it: a slab of the panel is transposed into a ``(w, n_freq)``
        ``bwd_reorder`` scratch, inverse-transformed (unscaled in place)
        into a ``(w, 2*Nt)`` scratch and unpadded straight into its
        columns of the result, so no full-width reorder, IFFT-input or
        IFFT-output buffer exists.
        """
        ny = self.nm if adjoint else self.nd
        k = yhat.shape[2]
        rec = self._prepared(("back", adjoint, config.code, ny * k), True, config, adjoint, ny, k)
        slabs = rec.bufs or self._back_buffers(rec)
        be, ws, plan, armed, booked = self.backend, self.workspace, rec.plan, self._armed, rec.booked
        nt, cols = self.nt, rec.cols
        y2 = yhat.reshape(self.n_freq, cols)
        # A double-precision unpad on the host writes a contiguous
        # caller buffer directly; a device backend unpads on device and
        # transfers in _finalize.
        direct = (
            out is not None
            and rec.udt == np.float64
            and be.name == "numpy"
            and out.flags.c_contiguous
        )
        res = out.reshape(nt, cols) if direct else None
        self.cast_noop_count += 1
        for first, sl, ybuf, tbuf in slabs:
            dev = self.device if first else None
            ys = tosi_to_soti(y2 if sl is None else y2[:, sl], backend=be, out=ybuf)
            if dev is not None:
                dev.book(*booked[0])
            # Phase 4: batched inverse FFT, batch = k * space.
            y = plan.inverse(ys, phase="ifft" if first else None, workspace=ws, out=tbuf)
            if dev is not None:
                dev.book(*booked[1])
            if armed:
                self._maybe_corrupt(y, "ifft")
                self._check_inverse_energy(ys, y, plan)
                self._guard_check(y, "ifft")
            # Phase 5: unpad (+ reduction across the grid in the parallel
            # engine) in its precision; back to double in _finalize.
            if res is None:
                res = self._unpad_buffer(rec)
            unpad_from_soti(
                y,
                nt,
                config.unpad,
                out=res if sl is None else res[:, sl],
                backend=be,
                validate=self._guard_on,
                rank=self.rank_label,
            )
            if dev is not None:
                dev.book(*booked[2])
        if direct:
            return out  # unpad already wrote the caller's buffer
        return self._finalize(res.reshape(nt, ny, k), out, detach=detach)

    def _pipeline(
        self,
        v_in: np.ndarray,
        config: PrecisionConfig,
        adjoint: bool,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Vector pipeline: front + back on the ``(Nt, nx, 1)`` view.

        Forward: v_in is (Nt, Nm); output (Nt, Nd); Phase-3 op = N.
        Adjoint: v_in is (Nt, Nd); output (Nt, Nm); Phase-3 op = C.
        The result lands in ``out`` (float64, (Nt, ny)) — the caller's,
        or a fresh host array, so a vector apply returns an array that
        owns its data, never a view into a width-1 block.  Phase 3 is
        the strided-batched GEMV — or, on a pairwise engine, the
        fixed-tree kernel every blocked apply uses, so a lone column
        accumulates bitwise like the same column inside any block.
        """
        pairwise = self.reduction == "pairwise"
        kernel = FFTMatvec._run_sbgemm if pairwise else FFTMatvec._run_sbgemv
        if out is None:
            out = host_empty((self.nt, self.nm if adjoint else self.nd), np.float64)
        with apply_scope(self.workspace):
            yhat = self._front(v_in[:, :, None], config, adjoint, kernel)
            self._back(yhat, config, adjoint, out.reshape(out.shape + (1,)), True)
        return out

    def _pipeline_block(
        self,
        v_in: np.ndarray,
        config: PrecisionConfig,
        adjoint: bool,
        out: Optional[np.ndarray] = None,
        detach: bool = True,
        deterministic: bool = False,
    ) -> np.ndarray:
        """Blocked pipeline: all ``k`` RHS in one pass per phase.

        Forward: v_in is (Nt, Nm, k); output (Nt, Nd, k); GEMM op = N.
        Adjoint: v_in is (Nt, Nd, k); output (Nt, Nm, k); GEMM op = C.
        ``out`` (float64, (Nt, ny, k)) receives the result in place;
        ``detach=False`` may return an arena buffer (internal callers
        only — it is overwritten by this engine's next apply).
        ``deterministic`` swaps the Phase-3 GEMM for the per-column
        batched GEMV (:meth:`_run_sbgemv_panel`), making every column
        bitwise what the vector pipeline returns for it — on a pairwise
        engine the fixed tree already does (the vector pipeline runs it
        too), so the flag is redundant there and ignored, as on the grid.
        """
        columnwise = deterministic and self.reduction != "pairwise"
        kernel = FFTMatvec._run_sbgemv_panel if columnwise else FFTMatvec._run_sbgemm
        with apply_scope(self.workspace):
            yhat = self._front(v_in, config, adjoint, kernel)
            return self._back(yhat, config, adjoint, out, detach)

    def _pipeline_block_pairwise_segments(
        self,
        v_in: np.ndarray,
        config: PrecisionConfig,
        adjoint: bool,
        start: int,
        n_global: int,
    ) -> Dict[Tuple[int, int], Any]:
        """Front half alone, for one grid rank in pairwise mode: Phase 3
        yields the canonical-segment partials over the rank's global
        contraction range ``[start, start + nx)``.  Segment values are
        fresh arrays (not arena buffers), safe to hold across this
        engine's next apply.
        """
        kernel = FFTMatvec._run_sbgemm_pairwise_segments
        with apply_scope(self.workspace):
            return self._front(v_in, config, adjoint, kernel, start, n_global)

    def _pipeline_block_finish(
        self,
        yhat: Any,
        config: PrecisionConfig,
        adjoint: bool,
        out: Optional[np.ndarray] = None,
        detach: bool = True,
    ) -> np.ndarray:
        """Back half alone, on the merged ``(n_freq, ny, k)`` frequency
        panel.  Runs once per output part on its root rank's engine
        (``ny`` must match this engine's output extent)."""
        ny = self.nm if adjoint else self.nd
        if tuple(yhat.shape[:2]) != (self.n_freq, ny):
            raise ReproError(
                f"finish panel must be ({self.n_freq}, {ny}, k), "
                f"got {tuple(yhat.shape)}"
            )
        with apply_scope(self.workspace):
            return self._back(yhat, config, adjoint, out, detach)

    # -- public API ----------------------------------------------------------
    def matvec(
        self,
        m: np.ndarray,
        config: Union[str, PrecisionConfig] = "ddddd",
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Compute ``d = F m``.

        ``m`` is a double-precision ``(Nt, Nm)`` array (or flat vector);
        the result is a double-precision ``(Nt, Nd)`` array.  ``out``
        receives the result in a caller-owned buffer — combined with a
        workspace arena, repeated applies are allocation-free.

        In pairwise mode the vector rides the width-1 blocked pipeline:
        the fixed tree makes a lone column accumulate bitwise like the
        same column inside any block, so ``matvec(m)`` ==
        ``matmat(M)[:, :, j]`` exactly whenever ``M[:, :, j] == m``.
        """
        cfg = PrecisionConfig.parse(config)
        mm = self.matrix.check_input(m).astype(np.float64, copy=False)
        out = check_out_buffer(out, (self.nt, self.nd))
        return self._timed(cfg, None, self._pipeline, mm, cfg, False, out)

    def rmatvec(
        self,
        d: np.ndarray,
        config: Union[str, PrecisionConfig] = "ddddd",
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Compute ``m = F* d`` (adjoint/conjugate-transpose matvec)."""
        cfg = PrecisionConfig.parse(config)
        dd = self.matrix.check_output(d).astype(np.float64, copy=False)
        out = check_out_buffer(out, (self.nt, self.nm))
        return self._timed(cfg, None, self._pipeline, dd, cfg, True, out)

    # -- blocked multi-RHS API -------------------------------------------------
    def matmat(
        self,
        M: np.ndarray,
        config: Union[str, PrecisionConfig] = "ddddd",
        out: Optional[np.ndarray] = None,
        deterministic: bool = False,
    ) -> np.ndarray:
        """Compute ``D = F M`` for a block of ``k`` parameter vectors.

        ``M`` is ``(Nt, Nm, k)`` (or scipy-style ``(Nt*Nm, k)``); the
        result is ``(Nt, Nd, k)`` with column ``j`` equal to
        ``matvec(M[:, :, j])`` up to rounding.  All k vectors share one
        pad, one batched FFT, one strided-batched GEMM per pass and one
        inverse FFT — see the module docstring.  ``out`` (``(Nt, Nd,
        k)`` float64) receives the result in place.  ``matvec_count``
        advances by ``k`` (logical operator actions); ``matmat_count``
        by one (pipeline passes).

        ``deterministic=True`` makes "up to rounding" exact: Phase 3
        runs one GEMV per column instead of the blocked GEMM, so column
        ``j`` is **bitwise** ``matvec(M[:, :, j])`` — phases 1/2/4/5 are
        batched either way (elementwise kernels and a row-independent
        batched FFT preserve per-column bits).  The serving coalescer
        uses this to batch concurrent tenants without perturbing anyone's
        answer.  A ``reduction="pairwise"`` engine keeps that promise
        through its fixed tree at any width and ignores the flag.
        """
        return self._apply_block(M, config, False, out, deterministic)

    def rmatmat(
        self,
        D: np.ndarray,
        config: Union[str, PrecisionConfig] = "ddddd",
        out: Optional[np.ndarray] = None,
        deterministic: bool = False,
    ) -> np.ndarray:
        """Compute ``M = F* D`` for a block of ``k`` data vectors.

        ``D`` is ``(Nt, Nd, k)`` (or ``(Nt*Nd, k)``); result
        ``(Nt, Nm, k)``.  The blocked counterpart of :meth:`rmatvec`;
        ``deterministic=True`` makes column ``j`` bitwise
        ``rmatvec(D[:, :, j])``, as in :meth:`matmat`.
        """
        return self._apply_block(D, config, True, out, deterministic)

    def _apply_block(self, V, config, adjoint: bool, out, deterministic: bool):
        """:meth:`matmat` / :meth:`rmatmat` body."""
        cfg = PrecisionConfig.parse(config)
        nx, ny = (self.nd, self.nm) if adjoint else (self.nm, self.nd)
        vv = check_block(V, self.nt, nx, "data" if adjoint else "parameter")
        k = vv.shape[2]
        out = check_out_buffer(out, (self.nt, ny, k))
        res = self._timed(
            cfg, (k, deterministic), self._pipeline_block, vv, cfg, adjoint, out, True, deterministic
        )
        self.matmat_count += 1
        return res

    def _timed(self, cfg: PrecisionConfig, block, fn, *args) -> np.ndarray:
        """Run one apply, ``fn(*args)``, of one column (``block`` None)
        or a ``(k, deterministic)`` block: ``matvec_count`` advances by
        the columns and, with a device, ``last_timing`` gets the apply's
        per-phase sim-clock breakdown (and the label only it reads)."""
        k, det = block or (1, False)
        if self.device is None:
            self.last_timing = None
            out = fn(*args)
        else:
            clock = self.device.clock
            before = {p: clock.phase_total(p) for p in _PHASES}
            out = fn(*args)
            self.last_timing = TimingReport(
                phases={
                    p: clock.phase_total(p) - before[p]
                    for p in _PHASES
                    if clock.phase_total(p) - before[p] > 0
                },
                label=f"{cfg}[k={k}{', det' if det else ''}]" if block else str(cfg),
            )
        self.matvec_count += k
        return out

    # -- convenience -----------------------------------------------------------
    _REF_CACHE_MAX = 16

    def relative_error(
        self,
        config: Union[str, PrecisionConfig],
        m: np.ndarray,
        adjoint: bool = False,
        ref: Optional[np.ndarray] = None,
    ) -> float:
        """Relative L2 error of a config vs the all-double baseline.

        This mirrors the artifact workflow: mixed-precision outputs are
        compared against the saved double-precision output.  The
        ``ddddd`` reference is cached per input (keyed by the input's
        bytes), so config sweeps over the same test vector pay for it
        once instead of doubling every evaluation; pass ``ref`` to
        supply a precomputed reference and skip the cache entirely.
        """
        op = self.rmatvec if adjoint else self.matvec
        if ref is None:
            check = self.matrix.check_output if adjoint else self.matrix.check_input
            mm = np.ascontiguousarray(check(m), dtype=np.float64)
            key = (adjoint, mm.shape, hashlib.sha1(mm.tobytes()).digest())
            ref = self._ref_cache.get(key)
            if ref is None:
                ref = op(m, config="ddddd")
                if len(self._ref_cache) >= self._REF_CACHE_MAX:
                    self._ref_cache.pop(next(iter(self._ref_cache)))
                self._ref_cache[key] = ref
        val = op(m, config=config)
        denom = float(np.linalg.norm(ref))
        if denom == 0.0:
            return float(np.linalg.norm(val))
        return float(np.linalg.norm(val - ref)) / denom

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dev = self.device.spec.name if self.device is not None else "no device"
        return f"FFTMatvec(Nt={self.nt}, Nd={self.nd}, Nm={self.nm}, {dev})"
