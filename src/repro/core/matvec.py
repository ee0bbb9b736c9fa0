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
input/output roles swapped, as ``conj(F_hat^T conj(d_hat))``: the two
conjugations run in place on slab scratch the pipeline writes anyway, so
no conjugated spectrum is held.  Every phase computes in the precision its
:class:`~repro.core.precision.PrecisionConfig` assigns; casts are fused
into the adjacent memory operations; inputs and outputs are always
double precision (Section 3.2).  The spectrum ``F_hat`` is computed in
double precision with the ``1/(2*Nt)`` inverse-transform normalization
folded in, and held at each Phase-3 tier an apply asks for, built on
first use (:meth:`FFTMatvec.spectrum`).

**One pipeline, blocked** (:meth:`FFTMatvec.matmat` /
:meth:`FFTMatvec.rmatmat`; :meth:`FFTMatvec.matvec` /
:meth:`FFTMatvec.rmatvec` are its width-1 block, whose Phase 3 is the
GEMV): ``k`` right-hand sides flow through *one* pipeline pass — one
pad kernel, one batched FFT with batch ``k * space``, a per-frequency
strided-batched **GEMM** (``F_hat[f] @ M_hat[f]`` with ``M_hat[f]`` an
``(Nm, k)`` panel) via the same dispatcher, one inverse FFT and one
unpad.  The spectrum — the dominant Phase-3 traffic — is
read once instead of ``k`` times, and the per-call launch/plan overhead
of the other phases is paid once, which is where block solvers,
posterior sampling and OED sweeps get their speedup.

On the host, a wide apply's column slabs and a large fast GEMM's
frequency parts run on every usable core through the host executor
(:mod:`repro.util.executor`); the bits, the simulated clock and every
counter are those of the inline run.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

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
from repro.blas.permute import permute_launch
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
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.fft.plan import FFTPlan, FFTType
from repro.gpu.device import SimulatedDevice, price_launch
from repro.gpu.kernel import KernelLaunch
from repro.gpu.specs import GPUSpec
from repro.util import checksum as _chk
from repro.util import executor
from repro.util.blocking import check_block, check_out_buffer
from repro.util.dtypes import Precision, complex_dtype, real_dtype
from repro.util.executor import run_groups
from repro.util.timing import TimingReport
from repro.util.validation import ReproError
from repro.util.workspace import Workspace

__all__ = ["FFTMatvec", "GramFactor", "front_launches", "back_launches"]

_PHASES = ("pad", "fft", "sbgemv", "ifft", "unpad")

# The numpy error state of a pad or unpad cast no finite check follows
# (see ``checked_cast`` in FFTMatvec._prepared): unchanged.
_UNCHECKED = nullcontext()

# Byte budget of one slab buffer of the phase loops (``_front`` /
# ``_back``), i.e. of the ``(w, 2*Nt)`` padded rows the FFT reads or
# writes: 256 columns at Nt = 256 double, 512 single.  The lever is
# reading each intermediate back from L2 instead of memory; flat from
# 0.5 to 3 MiB.  A multi-slab half runs its slabs on every usable CPU,
# one scratch set each: whole-width passes only split the memory
# bandwidth between two threads (0.8-1.2x), slab-sized ones stay in
# each core's L2 and run 1.4-1.8x faster on two (docs/ARCHITECTURE.md).
# An axis within 8 budgets stays whole: there the split only adds calls
# (a grid rank's 768-column chunk ran F 2.5 % slower in two slabs,
# block-CG's k = 8 blocks 5 %); it pays from about 8 MiB.
_SLAB_BYTES = 1 << 20

# Phase 3's fast GEMM (``_run_sbgemm``) splits its frequencies over the
# host's cores from this many multiply-adds, ``n_freq * Nd * Nm * k``.
# Two threads against one (one BLAS thread, complex128 / complex64, F and
# F*): 0.6 M 0.92-1.5x, 1.2 M 1.05-1.9x, 2.4 M 1.08-1.4x, 4.8 M 1.3-1.9x,
# 9.5 M and up 1.3-2.0x.  solve_small's k = 8 blocks (1.2 M) and a
# grid_fast rank-chunk (1.19 M) stay below, apply_large (37.9 M) above.
_PHASE3_SPLIT_MADDS = 2_000_000

# The circulant preconditioner's shift mu as a fraction of the smallest
# Gram eigenvalue s_min^2 (never the ridge: mu = ridge diverged).  CG on
# the (64, 24, 96) solve_small Hessian (s_min^2 = 237) takes 43-46
# iterations for any mu in 30-100, 0.13-0.42 of s_min^2.
_GRAM_SHIFT = 0.25


class GramFactor(NamedTuple):
    """What one SVD pass ``C_f = U_f diag(s_f) V_f^H`` over an engine's
    unnormalized spectrum (F_hat with its folded ``1/(2 Nt)`` taken back
    out) yields, frequency by frequency (:meth:`FFTMatvec.gram_factor`).

    ``kappa`` is the kappa(F_hat) of Eq. (6); ``s_min`` the smallest
    singular value over all frequencies; ``mu = 0.25 s_min^2`` the shift
    of the block-circulant preconditioner; ``B`` its factor, one complex64
    ``(Nt+1, r, Nm)`` array with ``r = min(Nd, Nm)`` and ``B_f =
    diag(s_f / sqrt(s_f^2 + mu)) V_f^H``, so that ``(C_f^H C_f + mu I)^-1
    = (I - B_f^H B_f) / mu``.  ``B`` is left unscaled when ``mu`` is 0
    (a singular frequency), where no preconditioner is built from it.
    """

    kappa: float
    s_min: float
    mu: float
    B: np.ndarray


def _parse_validate(validate) -> frozenset:
    """Parse a ``validate=`` spec into its mode set: ``None`` (no
    checks) or ``"abft"`` (see :class:`FFTMatvec`).  Anything else
    raises."""
    if validate is not None and validate != "abft":
        raise ReproError(f"validate must be None or 'abft', got {validate!r}")
    return frozenset({"abft"}) if validate else frozenset()


def _slabs(rec: SimpleNamespace, sets: Sequence[Tuple]) -> list:
    """One ``(first, columns, *rows)`` entry per slab of a prepared
    record's fused axis: its slice of that axis (``None`` when one slab
    is all of it) and its leading rows of each ``(w, ...)`` scratch of
    set ``i % len(sets)`` for slab ``i``."""
    w, cols = rec.w, rec.cols
    return [
        (c0 == 0, None if w == cols else slice(c0, c0 + n))
        + tuple(b if b is None else b[:n] for b in sets[i % len(sets)])
        for i, (c0, n) in enumerate((c0, min(w, cols - c0)) for c0 in range(0, cols, w))
    ]


def _gemm_frequencies(
    part: slice, fhat: Any, mhat: Any, operation: Operation, out: Any, be: Backend
) -> Any:
    """One contiguous frequency part of the fast Phase-3 GEMM
    (:meth:`FFTMatvec._run_sbgemm`)."""
    return gemm_strided_batched_reference(
        fhat[part], mhat[part], operation, out=out[part], backend=be
    )


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
    workspace:
        ``None`` or ``True`` (anything else raises): the engine owns a
        :class:`Workspace` arena, which every phase of the pipeline
        writes into (persistent checked-out buffers, nothing allocated
        per apply at steady state), registered with the device allocator
        when a device is attached.
    backend:
        Array backend for the hot path: a :class:`Backend` instance, a
        name (``"numpy"``/``"torch"``, explicit mode — raises when
        unavailable), or ``None`` to follow ``REPRO_BACKEND`` (default
        ``auto``: torch → numpy).  Inputs and outputs stay host float64
        on every backend.
    reduction:
        ``"fast"`` (default) lets Phase 3 accumulate in whatever order
        the selected BLAS kernel's tiling produces.  ``"pairwise"``
        pins the fixed binary-tree order of :mod:`repro.util.pairwise`
        instead: vector and blocked applies become bitwise-identical at
        any block width, and on the grid engine any contraction-axis
        partition — including width-1 parts — reproduces the same bits.
        Costs the modeled determinism tax of
        :class:`~repro.blas.gemm_kernels.PairwiseSBGEMM`.
    validate:
        SDC defense checks: ``None`` (off, the default) or ``"abft"``,
        which verifies each compute phase algebraically — Parseval
        energy checks after the FFT/IFFT, Huang–Abraham column checksums
        after the SBGEMM panel — raising
        :class:`~repro.util.checksum.SilentCorruption` on mismatch, and
        checks that the pad output's data half (before the FFT) and the
        unpad output are finite, raising
        :class:`~repro.util.checksum.NumericalHealthError` for a NaN/Inf
        the caller's input or a phase's cast brought in.  Any other
        value raises :class:`~repro.util.validation.ReproError`.
        Installing a :class:`~repro.comm.fault.CorruptionSchedule`
        implies the ``abft`` checks, so every injected flip has a
        detector armed.
    """

    def __init__(
        self,
        matrix: Union[BlockTriangularToeplitz, np.ndarray],
        device: Optional[SimulatedDevice] = None,
        workspace: Union[None, bool] = None,
        backend: Union[None, str, Backend] = None,
        reduction: str = "fast",
        validate: Optional[str] = None,
    ) -> None:
        if reduction not in ("fast", "pairwise"):
            raise ReproError(
                f"reduction must be 'fast' or 'pairwise', got {reduction!r}"
            )
        self.reduction = reduction
        self.validate_modes = _parse_validate(validate)
        self.rank_label: Optional[int] = None  # grid rank, set by the owner
        self._plans: Dict[Tuple, SimpleNamespace] = {}
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
        self.dispatcher = SBGEMVDispatcher(spec) if spec is not None else None

        # Setup: a device books the spectrum build here, once.  The
        # numbers are built by spectrum() at the tier an apply (or the
        # Gram factor) first asks for, in column panels, and only the
        # tiers asked for are held: a dssdd engine holds no complex128
        # spectrum.
        self._setup_spectrum()
        self._fhat: Dict[Precision, Any] = {}
        self._gram: Optional[GramFactor] = None  # gram_factor(), on first use
        self.setup_time = (
            self.device.clock.phase_total("setup") if self.device is not None else 0.0
        )

        self.last_timing: Optional[TimingReport] = None
        self.matvec_count = 0
        self.matmat_count = 0
        self.cast_noop_count = 0  # phase boundaries crossed without a cast pass
        self._ref_cache: Dict[Tuple[bool, Tuple[int, ...], bytes], np.ndarray] = {}
        self._fhat_t: Dict[Precision, Any] = {}  # adjoint_spectrum()'s transposes
        self._fhat_conj: Dict[Precision, Any] = {}  # spectrum_conj(), never read here
        self._abft_rows: Dict[Tuple[Precision, Operation], Tuple[Any, np.ndarray]] = {}
        if workspace not in (None, True):
            raise ReproError(f"workspace must be None or True, got {workspace!r}")
        self.workspace = Workspace(
            allocator=device.allocator if device is not None else None,
            name="fftmatvec",
            backend=self.backend,
        )
        self.workspace.release_hooks.append(self._plans.clear)  # records hold arena views

    # -- setup -----------------------------------------------------------------
    def _setup_spectrum(self) -> None:
        """Book the setup of F_hat (double precision, Section 3.2).

        A device books what the real code launches once over the whole
        shape: the two 3-D permutations cuTENSOR performed in the
        original CUDA code and the custom kernel performs after
        hipification (see :mod:`repro.blas.permute`), around one
        whole-batch D2Z.  The numbers are :meth:`spectrum`'s, built on
        first use at the tier asked for.
        """
        dev = self.device
        if dev is not None:
            plan = FFTPlan(n=self.n_pad, batch=self.nd * self.nm, fft_type=FFTType.D2Z)
            with dev.clock.phase("setup"):
                for kernel in (
                    permute_launch((self.n_pad, self.nd, self.nm), 8, dev.spec),
                    plan.launch(dev.spec),
                    permute_launch((self.nd, self.nm, self.n_freq), 16, dev.spec),
                ):
                    dev.launch(kernel, phase="setup")

    def condition_number_hat(self) -> float:
        """The kappa(F_hat) of Eq. (6), from :meth:`gram_factor`."""
        return self.gram_factor().kappa

    def gram_factor(self) -> GramFactor:
        """One SVD per frequency of the engine's double spectrum (built
        and held from here on if no double apply has asked for it yet),
        run on first use and kept: kappa and the preconditioner factor
        come from the same pass."""
        if self._gram is None:
            r = min(self.nd, self.nm)
            s = host_empty((self.n_freq, r), np.float64)
            B = host_empty((self.n_freq, r, self.nm), np.complex64)
            fhat = self.backend.from_device(self.spectrum(Precision.DOUBLE))
            # A frequency at a time: no complex128 transient the size of B.
            for f, block in enumerate(fhat):
                _, s[f], B[f] = np.linalg.svd(block, full_matrices=False)
            s_min = float(s[:, -1].min())  # singular values come descending
            kappa = np.inf if s_min == 0.0 else float(s[:, 0].max()) / s_min
            s *= self.n_pad
            s_min *= self.n_pad
            mu = _GRAM_SHIFT * s_min**2
            if mu > 0.0:
                B *= (s / np.sqrt(s * s + mu)).astype(np.float32)[:, :, None]
            self._gram = GramFactor(kappa, s_min, mu, B)
        return self._gram

    # -- cached resources ----------------------------------------------------
    def spectrum(self, precision: Precision) -> Any:
        """F_hat at the requested precision on the engine backend, built
        on first use and kept.

        The only place a held spectrum is built: each column panel is
        transformed and scaled by 1/(2*Nt) in double, then written into
        the tier's own array (cast per panel for complex64), so a tier
        is bitwise the double spectrum cast to it and a single-precision
        engine never holds a complex128 spectrum.  A first double request
        on an engine that so far ran only single applies pays one panel
        build (40-55 ms at (256, 24, 384)).
        """
        precision = Precision.parse(precision)
        if precision not in self._fhat:
            self._fhat[precision] = self.backend.asarray(
                self.matrix.spectrum(1.0 / float(self.n_pad), complex_dtype(precision))
            )
        return self._fhat[precision]

    def adjoint_spectrum(self, precision: Precision) -> Any:
        """The array the adjoint GEMM reads, as op T on the conjugated
        panel: the spectrum's values in the spectrum's shape.

        complex128 is the spectrum itself (TN is the faster zgemm).
        complex64 is the view of a contiguous transpose, built on first
        use and kept, so the op-T GEMM reads it as an NN cgemm (~1.8x the
        TN one).
        """
        precision = Precision.parse(precision)
        be, fhat = self.backend, self.spectrum(precision)
        if be.dtype_of(fhat) != np.complex64:
            return fhat
        if precision not in self._fhat_t:
            nf, nd, nm = fhat.shape
            t = be.empty((nf, nm, nd), np.complex64)
            be.copyto(t, be.transpose(fhat, (0, 2, 1)))
            self._fhat_t[precision] = be.transpose(t, (0, 2, 1))
        return self._fhat_t[precision]

    def spectrum_conj(self, precision: Precision) -> Any:
        """The conjugated spectrum at the requested precision, cached:
        complex64 as the view of a contiguous conjugate transpose,
        complex128 in the spectrum's layout.

        No apply reads it: the adjoint conjugates its panel instead
        (:meth:`adjoint_spectrum`).  Only ``bench/``'s phase replay,
        which runs the adjoint as op C, still calls it; the benchmark
        change that moves the replay to op T deletes it, with the
        ``a_conj`` / ``x_conj`` parameters of the BLAS references.
        """
        precision = Precision.parse(precision)
        if precision not in self._fhat_conj:
            be, fhat = self.backend, self.spectrum(precision)
            if be.dtype_of(fhat) == np.complex64:
                nf, nd, nm = fhat.shape
                conj = be.empty((nf, nm, nd), np.complex64)
                be.conjugate(be.transpose(fhat, (0, 2, 1)), out=conj)
                self._fhat_conj[precision] = be.transpose(conj, (0, 2, 1))
            else:
                self._fhat_conj[precision] = be.conjugate(fhat)
        return self._fhat_conj[precision]

    def checksum_rows(
        self, precision: Precision, operation: Operation
    ) -> Tuple[Any, np.ndarray]:
        """The ABFT checksum rows ``(e^T op(F_hat), e^T |op(F_hat)|)``, cached.

        Taken from the spectrum on first use and kept: every later check
        then compares the panel against what the *clean* spectrum
        implies, so a bit that flips in the live spectrum (or the
        adjoint's transpose) afterwards breaks the identity instead of
        moving both of its sides together.  The adjoint checks op T on
        its conjugated panel.
        """
        precision, op = Precision.parse(precision), Operation.parse(operation)
        if (precision, op) not in self._abft_rows:
            self._abft_rows[precision, op] = gemm_checksum_rows(
                self.spectrum(precision), op, backend=self.backend
            )
        return self._abft_rows[precision, op]

    def _prepared(
        self, key: Tuple, back: bool, config: PrecisionConfig, adjoint: bool, n: int, k: int
    ) -> SimpleNamespace:
        """The record under ``key`` of what the data does not decide about
        one half of an apply, resolved on first use: the half's FFT plan,
        tier dtypes, slab width, its arena views (``bufs``), the front's
        Phase-3 operands (``p3``) and — with a device — the launches it
        books, priced (``booked``: :func:`front_launches` /
        :func:`back_launches` as ``SimulatedDevice.book`` arguments; an
        invalid launch raises here and leaves no record); the back half
        adds its arena result on first need (``res``).  Records need no
        bound: each is a few KB of metadata over arena bytes every width
        shares, and callers run few keys (the service and the grid cap
        the width at ``max_block_k``).  An arena regrowth or release
        (``release_hooks``) and :meth:`install_corruption_schedule` drop
        them.
        """
        rec = self._plans.get(key)
        if rec is not None:
            return rec
        fft = config.ifft if back else config.fft
        rdt, cols = real_dtype(fft), n * k
        fft_type = FFTType.real_inverse(fft) if back else FFTType.real_forward(fft)
        w = self._slab_cols(cols, 2 * self.nt * rdt.itemsize)
        rec = SimpleNamespace(
            n=n, k=k, cols=cols, rdt=rdt, cdt=complex_dtype(fft), res=None, booked=None,
            w=w, plan=FFTPlan(self.n_pad, cols, fft_type, backend=self.backend),
            # The adjoint conjugates its slabs: the FFT's output in the
            # front, the reorder's in the back (_front_slab / _back_slab).
            adjoint=adjoint,
            # A multi-slab half runs its slabs as up to this many groups
            # (run_groups): slab i uses scratch set i % sets, so slabs
            # sharing a set never run at once.
            sets=1 if w == cols else min(-(-cols // w), executor.usable_cpus()),
        )
        # A narrowing pad or unpad cast of an armed engine is followed by
        # its finite check, which reports an overflow as a typed
        # NumericalHealthError: numpy's cast warning is silenced there
        # (under -W error it would raise first).  An unarmed engine keeps
        # it; its casts run under _UNCHECKED.
        if back:
            rec.udt = real_dtype(config.unpad)
            rec.checked_cast = self._abft_on and rec.udt.itemsize < rdt.itemsize
        else:
            # Phase 3's numeric op: the adjoint's panel is conjugated, so
            # op T gives conj(F_hat^H x).  A device books op C (phase3).
            rec.operation = Operation.T if adjoint else Operation.N
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
            rec.checked_cast = self._abft_on and rec.pad_dt == np.float32
            # The fast GEMM's frequency parts (_run_sbgemm), one per group.
            nf, parts = self.n_freq, 1
            if (
                key[0] is FFTMatvec._run_sbgemm
                and self.reduction == "fast"
                and self.backend.name == "numpy"
                and nf * self.nd * self.nm * k >= _PHASE3_SPLIT_MADDS
            ):
                parts = min(nf, executor.usable_cpus())
            rec.parts = [slice(f * nf // parts, (f + 1) * nf // parts) for f in range(parts)]
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
                    BlasDatatype.from_dtype(rec.sdt), Operation.C if adjoint else Operation.N,
                    self.reduction,
                )
                rec.counted = (phase3[0].name, runs)
                launches = front_launches(spec, self.nt, cols, config, [phase3] * runs)
            rec.booked = [
                (launch, price_launch(launch, spec), phase) for phase, launch in launches
            ]
        # The half's arena buffers, checked out once and cut into slabs
        # (front: plus the slab's fwd_reorder columns and the Phase-3 panel).
        ws, nt = self.workspace, self.nt
        if back:
            sets = [
                (
                    ws.checkout("bwd_reorder", (w, self.n_freq), rec.cdt),
                    ws.checkout("ifft_out", (w, 2 * nt), rdt) if w < cols else None,
                )
                for _ in range(rec.sets)
            ]
            rec.bufs = _slabs(rec, sets)
        else:
            sets = [
                (
                    padded_buffer(w, nt, rec.pad_dt, ws, self.backend),
                    ws.checkout("cast_fft", (w, 2 * nt), rdt) if rec.pad_dt != rdt else None,
                    ws.checkout("fft_out", (w, self.n_freq), rec.cdt) if w < cols else None,
                )
                for _ in range(rec.sets)
            ]
            vhat = ws.checkout("fwd_reorder", (self.n_freq, cols), rec.sdt)
            rec.bufs = (
                [s + (vhat if s[1] is None else vhat[:, s[1]],) for s in _slabs(rec, sets)],
                vhat.reshape(self.n_freq, n, k),
            )
            rec.p3 = self._phase3_operands(key[0], adjoint, rec.precision, n, k)
        self._plans[key] = rec
        return rec

    def geometry_key(self) -> Tuple:
        """Stable, hashable fingerprint of this engine's geometry.

        Two engines with equal keys run the same five-phase shapes:
        problem extents, padded/frequency lengths, backend name and the
        simulated device (None without one).  The serving layer's coalescer and
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
        )

    # -- Phase 3: numerics only (what they book is the record's) ---------------
    def _phase3_operands(self, kernel, adjoint: bool, precision: Precision, nx: int, k: int) -> Tuple:
        """A front record's Phase-3 ``(fhat, out, staging)``: the spectrum
        at its tier (an adjoint GEMM's :meth:`adjoint_spectrum`) and the
        ``kernel``'s arena output and staging, or ``None``.  All kernels
        write one output tag: a vector's is a prefix of a block's."""
        gemm = kernel in (FFTMatvec._run_sbgemm, FFTMatvec._run_sbgemm_pairwise_segments)
        fhat = (self.adjoint_spectrum if gemm and adjoint else self.spectrum)(precision)
        if kernel is FFTMatvec._run_sbgemm_pairwise_segments:
            return fhat, None, None
        ws, dt, nf = self.workspace, self.backend.dtype_of(fhat), self.n_freq
        ny = self.nm if adjoint else self.nd
        out = ws.checkout("sbgemm_out", (nf, ny) if kernel is FFTMatvec._run_sbgemv else (nf, ny, k), dt)
        stage = None  # the deterministic panel's: a column's GEMV output, or numpy's staged columns
        if kernel is FFTMatvec._run_sbgemv_panel:
            if self.backend.name != "numpy":
                stage = ws.checkout("sbgemv_stage", (nf, ny), dt)
            elif adjoint or ny == 1:
                stage = ws.checkout("sbgemv_stage", (k, nf, nx), dt)
        return fhat, out, stage

    def _run_sbgemv(self, panel: Any, rec: SimpleNamespace) -> Any:
        """Vector Phase 3: the strided-batched GEMV on the lone column of
        an ``(n_freq, nx, 1)`` panel, returned as an ``(n_freq, ny, 1)`` one."""
        fhat, out, _ = rec.p3
        yhat = gemv_strided_batched_reference(
            fhat, panel[:, :, 0], rec.operation, out=out, backend=self.backend
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
        fhat, out, _ = rec.p3
        if self.reduction == "pairwise":
            return pairwise_gemm_strided_batched_reference(
                fhat, mhat, operation, out=out, backend=be, workspace=self.workspace
            )
        # numpy's stacked matmul runs one GEMM per frequency, so the
        # contiguous frequency parts of the record give the bits of one
        # call on any number of threads.
        parts = rec.parts
        run_groups(_gemm_frequencies, parts, len(parts), fhat, mhat, operation, out, be)
        return out

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
        fhat = rec.p3[0]
        return pairwise_segment_values(
            fhat, panel, rec.operation, start, n_global,
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
        Python-side); other backends loop the columns through the GEMV
        :meth:`_run_sbgemv` runs.  Either way a device books k GEMV launches
        — the price of determinism the docs advertise.
        """
        be, operation, adj = self.backend, rec.operation, rec.adjoint
        fhat, out, xbuf = rec.p3
        if be.name != "numpy":
            for j in range(mhat.shape[2]):  # each column as a lone GEMV runs it
                out[:, :, j] = gemv_strided_batched_reference(
                    fhat, mhat[:, :, j], operation, out=xbuf, backend=be
                )
            return out
        cols = mhat.transpose(2, 0, 1)  # (k, nf, nx) strided view
        out_v = out.transpose(2, 0, 1)  # (k, nf, ny) strided view
        if xbuf is not None:
            # numpy picks its matmul loop by the operands' strides, so the
            # columns are handed over as a lone GEMV has them — contiguous —
            # wherever the strided view would take another loop: the
            # adjoint, and a forward panel whose output has one row.
            be.copyto(xbuf, cols)
            cols = xbuf
        if not adj:
            # One GEMV per (column, frequency): (1,nf,ny,nx) @ (k,nf,nx,1).
            be.matmul(fhat[None], cols[..., None], out=out_v[..., None])
            return out
        # Adjoint GEMV per column: x^T A on the conjugated panel.  The
        # contraction runs as matrix-vector against the transposed
        # spectrum *view* — same strided gufunc accumulation as the
        # row-vector form (bitwise-identical, the coalescing tests assert
        # it), but measurably faster; a contiguous copy of the transpose
        # would flip numpy into a BLAS path with a different summation
        # order and break the identity.
        fhat_t = be.transpose(fhat, (0, 2, 1))
        be.matmul(fhat_t[None], cols[..., None], out=out_v[..., None])
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

    def _check_forward_energy(self, x: Any, xhat: Any, plan: FFTPlan) -> None:
        plan.verify_forward_energy(x, xhat, phase="fft", rank=self.rank_label)
        self.sdc_checks += 1

    def _check_inverse_energy(self, xhat: Any, y: Any, plan: FFTPlan) -> None:
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
        whole buffers — abft checks and injection see, count and index
        each stage buffer once per apply; a device backend's cache is not
        this host's."""
        whole = self._abft_on or self.backend.name != "numpy"
        if whole or cols * row_bytes <= 8 * _SLAB_BYTES:
            return cols
        return max(1, _SLAB_BYTES // row_bytes)

    def _finalize(
        self, res: Any, out: Optional[np.ndarray], detach: bool = True
    ) -> Any:
        """Return the pipeline result as float64.

        ``res`` is the unpad output, an arena buffer.  Without ``out`` it
        is *detached* (copied to a fresh host array) so the caller can
        hold it across later applies; ``detach=False`` skips that copy
        for internal callers (the grid engine) that consume the result
        before this engine's next apply — on a device backend it then
        stays a backend array.

        Caller-facing results (``out`` given, or detached) are always
        host float64, whatever the compute backend.
        """
        be = self.backend
        if out is None:
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
    # BlockTriangularToeplitz.spectrum), which is what makes a rank's
    # front bitwise-equal to the corresponding slice of a single-device
    # front.

    def _unpad_buffer(self, rec: SimpleNamespace) -> Any:
        """The back half's own ``(Nt, cols)`` result buffer — asked for
        only by an apply that cannot unpad into its caller's ``out``,
        and by a lone slab only once the IFFT's output exists: asking
        earlier cost glibc ~1000 more page faults per engine build.
        Several slabs ask for it before any runs.  Should it outgrow its
        slot, the regrowth drops the record, rebuilt by the next apply."""
        if rec.res is None:
            rec.res = self.workspace.checkout("unpad", (self.nt, rec.cols), rec.udt)
        return rec.res

    def _front(
        self,
        v_in: np.ndarray,
        config: PrecisionConfig,
        adjoint: bool,
        kernel: Callable[..., Any],
        *kernel_args: Any,
        panel: Optional[Any] = None,
    ) -> Any:
        """Phases 1-3 on a ``(Nt, nx, k)`` block; returns Phase 3's result.

        Owns the ``pad`` and ``fft`` clock phases and the head of
        ``sbgemv``; the ``cast_fft`` cast (``sd...`` configs only) and
        the ``fwd_reorder`` arena tag; the pad output's finite check, and
        the forward Parseval check and the Phase-3 ABFT check, each behind
        its injection site.  ``kernel(self, panel, rec, *kernel_args)`` — the
        Phase-3 kernel (an unbound method) on the ``(n_freq, nx, k)``
        panel — is the only thing the entry points vary; it returns the
        ``(n_freq, ny, k)`` output panel, or a canonical-segment table
        on the grid front.

        The k columns ride along as an extra inner dimension of the
        "space" axis: pad/FFT/reorder treat ``nx * k`` fused columns (the
        batched kernels are agnostic), and only Phase 3 unflattens them
        into per-frequency (nx, k) panels.

        Pad -> FFT -> reorder is :meth:`_transform`, which with a device
        books each launch right behind its kernel, unless ``panel``
        already holds it: an engine of the same input extent ran it on
        the same block (the ranks of a grid column share their part
        root's, see :meth:`_pipeline_block_transform`).  This engine
        then books those three launches itself after Phase 3, right
        ahead of the rest of the list (``booked[3:]``): the modeled
        device runs pad, FFT, reorder and Phase 3 whether or not the
        host shared them, and nothing else books in between, so its
        clock reads the same bits.  Either way this engine counts its
        cast no-ops.

        What the data does not decide comes from the prepared record
        (:meth:`_front_record`).
        """
        rec = self._front_record(v_in, config, adjoint, kernel)
        shared = panel is not None
        if not shared:
            panel = self._transform(rec, v_in, config, book=True)
        self.cast_noop_count += rec.noops
        yhat = kernel(self, panel, rec, *kernel_args)
        if rec.booked is not None:
            for entry in rec.booked[0 if shared else 3:]:
                self.device.book(*entry)
            name, launches = rec.counted
            self.dispatcher.dispatch_counts[name] += launches
        if self._abft_on:
            self._maybe_corrupt(yhat, "sbgemm")
            self._check_gemm(panel, yhat, rec.operation, config.sbgemv)
        return yhat

    def _front_record(
        self, v_in: np.ndarray, config: PrecisionConfig, adjoint: bool, kernel: Callable[..., Any]
    ) -> SimpleNamespace:
        """The front half's prepared record (:meth:`_prepared`) for a
        ``(Nt, nx, k)`` block and its Phase-3 ``kernel``: the one key
        both an engine's own :meth:`_front` and a grid part root's
        shared :meth:`_pipeline_block_transform` look up."""
        _, nx, k = v_in.shape
        return self._prepared((kernel, adjoint, config.code, nx * k), False, config, adjoint, nx, k)

    def _transform(
        self, rec: SimpleNamespace, v_in: np.ndarray, config: PrecisionConfig, book: bool
    ) -> Any:
        """Pad -> FFT -> reorder of a ``(Nt, nx, k)`` block into the front
        record's ``(n_freq, nx, k)`` panel, which it returns.  With
        ``book`` (and a device) each of the three launches is booked for
        the full width right behind the kernel it describes
        (``booked[0:3]``: the modeled device does not slab), so a check
        that raises after the FFT leaves the pad and FFT booked; without,
        numerics only (the plan still counts its execution).

        Runs **slab by slab** over the fused columns (:meth:`_slab_cols`),
        one :meth:`_front_slab` per slab through the host executor
        (:func:`~repro.util.executor.run_groups`): a multi-slab half's
        slabs run as up to ``rec.sets`` groups on the host's cores, whole
        width is one slab run inline.  FFT rows are independent and the
        rest are copies into disjoint columns: the bits are those of one
        whole-width pass on one thread.
        """
        slabs, panel = rec.bufs
        v2 = v_in.reshape(self.nt, rec.cols)
        run_groups(self._front_slab, slabs, rec.sets, rec, v2, config, book)
        return panel

    def _front_slab(
        self, slab: Tuple, rec: SimpleNamespace, v2: np.ndarray, config: PrecisionConfig, book: bool
    ) -> None:
        """Pad -> FFT -> reorder of one slab of :meth:`_transform`: padded
        into its ``(w, 2*Nt)`` scratch, transformed into a ``(w,
        n_freq)`` one and transposed straight into its columns of
        ``fwd_reorder``, so the intermediates are read back from L2.

        The first slab runs on the calling thread (group 0) and alone
        counts the plan's execution and, with ``book``, books each
        phase's launch for the full width (``booked[i]`` right behind
        the kernel it describes: the modeled device does not slab); the
        others touch no counter, device or arena, so they may run on any
        thread.  Armed hooks see whole buffers: an armed engine is one
        slab.
        """
        first, sl, xbuf, cbuf, fbuf, vslab = slab
        be, plan, booked = self.backend, rec.plan, rec.booked
        dev = self.device if first and book else None
        # Phase 1: broadcast (trivial single-device) + zero-pad, in
        # the phase's precision (cast fused into the kernel's writes).
        with np.errstate(over="ignore") if rec.checked_cast else _UNCHECKED:
            x = pad_to_soti(v2 if sl is None else v2[:, sl], config.pad, out=xbuf, backend=be)
        if dev is not None:
            dev.book(*booked[0])
        if self._abft_on:  # the caller's input, as the pad cast it
            _chk.ensure_finite(
                be.from_device(x[:, : self.nt]),
                phase="pad", rank=self.rank_label, what="pad output",
            )
        # Phase 2: batched forward FFT (batch = k * space).
        if cbuf is not None:
            cbuf[...] = x
            x = cbuf
        xhat = plan.execute(x, phase="fft" if first else None, out=fbuf)
        if dev is not None:
            dev.book(*booked[1])
        if self._abft_on:
            self._maybe_corrupt(xhat, "fft")
            self._check_forward_energy(x, xhat, plan)
        if rec.adjoint:  # Phase 3 reads conj(x_hat) as op T
            be.conjugate(xhat, out=xhat)
        # Reorder to frequency-outer layout, written at Phase 3's
        # precision: the value "reorder at the lower adjacent
        # precision, then cast" gives (a down-cast rounds once, an
        # up-cast is exact), without the second pass.
        soti_to_tosi(xhat, backend=be, out=vslab)
        if dev is not None:
            dev.book(*booked[2])

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
        injection site, and the unpad output's finite check.

        Slab by slab like :meth:`_front`, from a prepared record like
        it: one :meth:`_back_slab` per slab through the host executor,
        so no full-width reorder, IFFT-input or IFFT-output buffer
        exists.
        """
        ny = self.nm if adjoint else self.nd
        k = yhat.shape[2]
        rec = self._prepared(("back", adjoint, config.code, ny * k), True, config, adjoint, ny, k)
        nt, cols = self.nt, rec.cols
        # A double-precision unpad on the host writes a contiguous
        # caller buffer directly; a device backend unpads on device and
        # transfers in _finalize.
        direct = (
            out is not None
            and rec.udt == np.float64
            and self.backend.name == "numpy"
            and out.flags.c_contiguous
        )
        if direct:
            res = out.reshape(nt, cols)
        elif rec.w < cols:  # the slabs share one, resolved before any runs
            res = self._unpad_buffer(rec)
        else:
            res = None
        self.cast_noop_count += 1
        res = run_groups(
            self._back_slab, rec.bufs, rec.sets, rec, yhat.reshape(self.n_freq, cols), res, config
        )[0]
        if direct:
            return out  # unpad already wrote the caller's buffer
        return self._finalize(res.reshape(nt, ny, k), out, detach=detach)

    def _back_slab(
        self,
        slab: Tuple,
        rec: SimpleNamespace,
        y2: Any,
        res: Optional[Any],
        config: PrecisionConfig,
    ) -> Any:
        """Reorder -> IFFT -> unpad of one slab of :meth:`_back`:
        transposed into its ``(w, n_freq)`` ``bwd_reorder`` scratch,
        inverse-transformed into a ``(w, 2*Nt)`` one and unpadded
        straight into its columns of ``res``, which it returns.  ``res``
        is ``None`` only for a lone slab (on the calling thread): the
        result buffer is then asked for once the IFFT's output exists.
        Counts, books and checks as :meth:`_front_slab` does.
        """
        first, sl, ybuf, tbuf = slab
        be, plan, booked = self.backend, rec.plan, rec.booked
        dev = self.device if first else None
        ys = tosi_to_soti(y2 if sl is None else y2[:, sl], backend=be, out=ybuf)
        if dev is not None:
            dev.book(*booked[0])
        if rec.adjoint:  # op T gave conj(F_hat^H x_hat): conjugate it back
            be.conjugate(ys, out=ys)
        # Phase 4: batched inverse FFT, batch = k * space.
        y = plan.inverse(ys, phase="ifft" if first else None, out=tbuf)
        if dev is not None:
            dev.book(*booked[1])
        if self._abft_on:
            self._maybe_corrupt(y, "ifft")
            self._check_inverse_energy(ys, y, plan)
        # Phase 5: unpad (+ reduction across the grid in the parallel
        # engine) in its precision; back to double in _finalize.
        if res is None:
            res = self._unpad_buffer(rec)
        with np.errstate(over="ignore") if rec.checked_cast else _UNCHECKED:
            unpad_from_soti(y, self.nt, config.unpad, out=res if sl is None else res[:, sl], backend=be)
        if dev is not None:
            dev.book(*booked[2])
        if self._abft_on:  # what the unpad's cast wrote
            _chk.ensure_finite(
                be.from_device(res), phase="unpad", rank=self.rank_label, what="unpad output",
            )
        return res

    def _pipeline_block(
        self,
        v_in: np.ndarray,
        config: PrecisionConfig,
        adjoint: bool,
        out: Optional[np.ndarray] = None,
        detach: bool = True,
        deterministic: bool = False,
        panel: Optional[Any] = None,
    ) -> np.ndarray:
        """The pipeline: all ``k`` RHS in one pass per phase (a vector
        apply is the width-1 block).

        Forward: v_in is (Nt, Nm, k); output (Nt, Nd, k); GEMM op = N.
        Adjoint: v_in is (Nt, Nd, k); output (Nt, Nm, k); GEMM op = C.
        ``out`` (float64, (Nt, ny, k)) receives the result in place;
        ``detach=False`` may return an arena buffer (internal callers
        only — it is overwritten by this engine's next apply).
        ``deterministic`` picks the per-column Phase 3 (see
        :meth:`_block_kernel`).  ``panel`` is ``v_in`` already
        transformed by :meth:`_pipeline_block_transform` (internal: the
        grid's ranks that share one input part).
        """
        kernel = self._block_kernel(v_in.shape[2], deterministic)
        with self.workspace:
            yhat = self._front(v_in, config, adjoint, kernel, panel=panel)
            return self._back(yhat, config, adjoint, out, detach)

    def _block_kernel(self, k: int, deterministic: bool) -> Callable[..., Any]:
        """The Phase-3 kernel of a width-``k`` :meth:`_pipeline_block`.

        ``deterministic`` swaps the fast GEMM for the per-column batched
        GEMV (:meth:`_run_sbgemv_panel`), making every column bitwise
        what the width-1 apply returns for it — on a pairwise engine the
        fixed tree already does (the width-1 apply runs it too), so the
        flag is redundant there and ignored, as on the grid.
        """
        if self.reduction == "pairwise":
            return FFTMatvec._run_sbgemm
        if k == 1:
            # A lone fast column is the GEMV (as SBGEMVDispatcher.phase3
            # books it): the GEMM's bits, on either adjoint_spectrum layout.
            return FFTMatvec._run_sbgemv
        return FFTMatvec._run_sbgemv_panel if deterministic else FFTMatvec._run_sbgemm

    def _pipeline_block_transform(
        self, v_in: np.ndarray, config: PrecisionConfig, adjoint: bool, kernel: Callable[..., Any]
    ) -> Any:
        """Pad -> FFT -> reorder alone (:meth:`_transform`), for the root
        of a grid input part whose ranks all receive the same bits: the
        returned panel is this engine's arena buffer, which every rank
        of the part hands its own :meth:`_front` as ``panel`` before this
        engine's next apply.  Books and counts nothing but the plan's
        execution: each rank books its own launches.  ``kernel`` names
        the front record, the one the ranks' own applies look up."""
        with self.workspace:
            rec = self._front_record(v_in, config, adjoint, kernel)
            return self._transform(rec, v_in, config, book=False)

    def _pipeline_block_pairwise_segments(
        self,
        v_in: np.ndarray,
        config: PrecisionConfig,
        adjoint: bool,
        start: int,
        n_global: int,
        panel: Optional[Any] = None,
    ) -> Dict[Tuple[int, int], Any]:
        """Front half alone, for one grid rank in pairwise mode: Phase 3
        yields the canonical-segment partials over the rank's global
        contraction range ``[start, start + nx)``.  Segment values are
        fresh arrays (not arena buffers), safe to hold across this
        engine's next apply.  ``panel`` as in :meth:`_pipeline_block`.
        """
        kernel = FFTMatvec._run_sbgemm_pairwise_segments
        with self.workspace:
            return self._front(v_in, config, adjoint, kernel, start, n_global, panel=panel)

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
        with self.workspace:
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
        receives the result in a caller-owned buffer — with the engine's
        arena, repeated applies are then allocation-free.

        The vector rides the width-1 blocked pipeline, so ``matvec(m)``
        == ``matmat(M)[:, :, j]`` exactly whenever ``M[:, :, j] == m``
        for a width-1 ``M``, a ``deterministic=True`` block, or any block
        on a pairwise engine.
        """
        mm = self.matrix.check_input(m).astype(np.float64, copy=False)
        return self._apply_vector(mm, config, False, check_out_buffer(out, (self.nt, self.nd)))

    def rmatvec(
        self,
        d: np.ndarray,
        config: Union[str, PrecisionConfig] = "ddddd",
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Compute ``m = F* d`` (adjoint/conjugate-transpose matvec)."""
        dd = self.matrix.check_output(d).astype(np.float64, copy=False)
        return self._apply_vector(dd, config, True, check_out_buffer(out, (self.nt, self.nm)))

    def _apply_vector(
        self, v: np.ndarray, config, adjoint: bool, out: Optional[np.ndarray]
    ) -> np.ndarray:
        """:meth:`matvec` / :meth:`rmatvec` body: the width-1 block apply
        of ``v``'s ``(Nt, nx, 1)`` view into ``out`` — the caller's, or a
        fresh host array, so a vector apply returns an array that owns
        its data, never a view into a width-1 block."""
        cfg = PrecisionConfig.parse(config)
        if out is None:
            out = host_empty((self.nt, self.nm if adjoint else self.nd), np.float64)
        self._timed(
            cfg, None, self._pipeline_block, v[:, :, None], cfg, adjoint,
            out.reshape(out.shape + (1,)),
        )
        return out

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
            with self.device.clock.tally() as seconds:
                out = fn(*args)
            self.last_timing = TimingReport(
                phases={p: seconds[p] for p in _PHASES if seconds.get(p, 0.0) > 0},
                label=f"{cfg}[k={k}{', det' if det else ''}]" if block else str(cfg),
            )
        self.matvec_count += k
        return out

    # -- convenience -----------------------------------------------------------
    _REF_CACHE_MAX = 16

    def relative_error(self, config: Union[str, PrecisionConfig], m: np.ndarray) -> float:
        """Relative L2 error of a config's forward matvec vs the
        all-double baseline.

        This mirrors the artifact workflow: mixed-precision outputs are
        compared against the saved double-precision output.  The
        ``ddddd`` reference is cached per input (keyed by the input's
        bytes), so config sweeps over the same test vector pay for it
        once instead of doubling every evaluation.
        """
        mm = np.ascontiguousarray(self.matrix.check_input(m), dtype=np.float64)
        key = (mm.shape, hashlib.sha1(mm.tobytes()).digest())
        ref = self._ref_cache.get(key)
        if ref is None:
            ref = self.matvec(m, config="ddddd")
            if len(self._ref_cache) >= self._REF_CACHE_MAX:
                self._ref_cache.pop(next(iter(self._ref_cache)))
            self._ref_cache[key] = ref
        val = self.matvec(m, config=config)
        denom = float(np.linalg.norm(ref))
        if denom == 0.0:
            return float(np.linalg.norm(val))
        return float(np.linalg.norm(val - ref)) / denom

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dev = self.device.spec.name if self.device is not None else "no device"
        return f"FFTMatvec(Nt={self.nt}, Nd={self.nd}, Nm={self.nm}, {dev})"
