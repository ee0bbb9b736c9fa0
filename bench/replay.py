"""Phase replay: one engine apply, re-run through the layers' public
functions with a span around each call.

The engine's five-phase pipeline is private (``FFTMatvec._pipeline*``),
so the benchmark cannot put spans inside it.  Instead it calls the same
public layer functions itself, in pipeline order and on the engine's own
arena, spectrum and shapes::

    core.phases.pad_to_soti -> FFTPlan.execute -> core.reorder.soti_to_tosi
      -> Phase-3 kernel -> core.reorder.tosi_to_soti -> FFTPlan.inverse
      -> core.phases.unpad_from_soti

and requires the replayed result to be **bitwise** the engine's.  A
replay that diverges is not a measurement of the engine, so its numbers
are never reported (:class:`ReplayDiverged`).

Span names carry the direction of the apply they belong to
(``fft.plan.fwd@F`` is the forward FFT of a forward apply,
``fft.plan.fwd@F*`` that of an adjoint apply).

Inter-phase casts are replayed too (they are needed for the bits) under
their own span; they belong to the engine's self time, not to a phase.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.blas.gemm_kernels import (
    gemm_checksum_verify,
    gemm_strided_batched_reference,
    pairwise_gemm_strided_batched_reference,
)
from repro.blas.gemv_kernels import gemv_strided_batched_reference
from repro.blas.types import Operation
from repro.core.matvec import FFTMatvec
from repro.core.phases import pad_to_soti, unpad_from_soti
from repro.core.precision import PrecisionConfig
from repro.core.reorder import soti_to_tosi, tosi_to_soti
from repro.fft.plan import FFTPlan, FFTType
from repro.util.dtypes import complex_dtype, real_dtype

from spans import SpanRecorder

__all__ = [
    "PhaseReplay", "ReplayDiverged", "PHASE_SPANS", "BACK_SPANS", "CAST_SPAN",
    "computed_counters",
]

# Span names of the replayed phases, in pipeline order.  Their sum is
# what ``core.matvec.self_ms`` is subtracted from.
PHASE_SPANS = (
    "core.phases.pad",
    "fft.plan.fwd",
    "core.reorder.fwd",
    "blas.dispatch.gemm",
    "blas.dispatch.gemv",
    "util.pairwise.gemm",
    "util.checksum.energy_verify_fwd",
    "util.checksum.energy_verify_inv",
    "util.checksum.gemm_verify",
    "core.reorder.bwd",
    "fft.plan.inv",
    "core.phases.unpad",
)
# Phases a grid rank runs before / after the frequency-domain reduce of
# the pairwise path (FFTMatvec's front and finish halves).
BACK_SPANS = (
    "core.reorder.bwd",
    "fft.plan.inv",
    "util.checksum.energy_verify_inv",
    "core.phases.unpad",
)
CAST_SPAN = "core.matvec.cast"


class ReplayDiverged(RuntimeError):
    """The replayed pipeline did not reproduce the engine's bits."""


class PhaseReplay:
    """Replays applies of one workspace-backed :class:`FFTMatvec`."""

    def __init__(self, engine: FFTMatvec, rec: SpanRecorder) -> None:
        if engine.workspace is None:
            raise ValueError("phase replay needs an engine built with workspace=True")
        self.engine = engine
        self.rec = rec
        self._plans: Dict[Tuple[str, Any, int], FFTPlan] = {}
        self._stages: Optional[Dict[str, Any]] = None  # filled by _locate only
        self._dir = "@F"  # span-name suffix of the apply being replayed

    def _plan(self, kind: str, prec, batch: int) -> FFTPlan:
        key = (kind, prec, batch)
        plan = self._plans.get(key)
        if plan is None:
            eng = self.engine
            fft_type = (
                FFTType.real_forward(prec) if kind == "fwd" else FFTType.real_inverse(prec)
            )
            plan = self._plans[key] = FFTPlan(
                n=eng.n_pad, batch=batch, fft_type=fft_type, device=eng.device,
                backend=eng.backend,
            )
        return plan

    @property
    def stage_copies(self) -> int:
        return sum(p.stage_copies for p in self._plans.values())

    def _cast(self, arr: Any, prec, tag: str) -> Any:
        """The engine's inter-phase cast: a no-op at equal precision,
        else a copy-with-cast into the arena."""
        be = self.engine.backend
        target = complex_dtype(prec) if be.iscomplex(arr) else real_dtype(prec)
        if be.dtype_of(arr) == target:
            return arr
        with self._span(CAST_SPAN):
            buf = self.engine.workspace.checkout(tag, tuple(arr.shape), target)
            buf[...] = arr
        return buf

    def _span(self, name: str):
        return self.rec.span(name + self._dir)

    def _keep(self, stage: str, buf: Any) -> None:
        if self._stages is not None:
            self._stages[stage] = buf

    def _phase3_block(self, panel: Any, op: Operation, prec) -> Any:
        eng, be, ws = self.engine, self.engine.backend, self.engine.workspace
        fhat = eng.spectrum(prec)
        a_conj = eng.spectrum_conj(prec) if op is Operation.C else None
        rows = fhat.shape[1] if op is Operation.N else fhat.shape[2]
        out = ws.checkout(
            "sbgemm_out", (fhat.shape[0], rows, panel.shape[2]), be.dtype_of(fhat)
        )
        pairwise = eng.reduction == "pairwise"
        with self._span("util.pairwise.gemm" if pairwise else "blas.dispatch.gemm"):
            if eng.dispatcher is not None:
                return eng.dispatcher.gemm_strided_batched(
                    fhat, panel, op, device=eng.device, phase="sbgemv", out=out,
                    a_conj=a_conj, backend=be, reduction=eng.reduction,
                )
            kernel = (
                pairwise_gemm_strided_batched_reference
                if pairwise
                else gemm_strided_batched_reference
            )
            return kernel(fhat, panel, op, out=out, a_conj=a_conj, backend=be)

    def _phase3_vector(self, vhat: Any, op: Operation, prec) -> Any:
        eng, be, ws = self.engine, self.engine.backend, self.engine.workspace
        fhat = eng.spectrum(prec)
        with self._span("blas.dispatch.gemv"):
            out_len = fhat.shape[1] if op is Operation.N else fhat.shape[2]
            out = ws.checkout("sbgemv_out", (fhat.shape[0], out_len), be.dtype_of(fhat))
            x_conj = None
            if op is Operation.C:
                x_conj = ws.checkout("sbgemv_conj_x", tuple(vhat.shape), be.dtype_of(vhat))
                be.conjugate(vhat, out=x_conj)
            if eng.dispatcher is not None:
                return eng.dispatcher.gemv_strided_batched(
                    fhat, vhat, op, device=eng.device, phase="sbgemv", out=out,
                    x_conj=x_conj, backend=be,
                )
            return gemv_strided_batched_reference(
                fhat, vhat, op, out=out, x_conj=x_conj, backend=be
            )

    def apply(self, v_in: np.ndarray, config, adjoint: bool, out: np.ndarray) -> np.ndarray:
        """Replay ``matvec``/``rmatvec`` (2-D input) or ``matmat``/``rmatmat``
        (3-D input) into ``out`` (float64, C-contiguous)."""
        eng = self.engine
        be, ws, dev = eng.backend, eng.workspace, eng.device
        cfg = PrecisionConfig.parse(config)
        if real_dtype(cfg.unpad) != np.float64:
            raise ValueError("phase replay covers double-precision unpad configs only")
        op = Operation.C if adjoint else Operation.N
        self._dir = "@F*" if adjoint else "@F"
        block = v_in.ndim == 3
        nt, nx = v_in.shape[0], v_in.shape[1]
        k = v_in.shape[2] if block else 1
        ny = eng.nm if adjoint else eng.nd
        abft = "abft" in eng.validate_modes
        ws.begin_apply()
        try:
            with self._span("core.phases.pad"):
                x = pad_to_soti(
                    v_in.reshape(nt, nx * k), cfg.pad, device=dev, phase="pad",
                    workspace=ws, backend=be,
                )
            self._keep("core.phases.pad", x)
            x = self._cast(x, cfg.fft, "cast_fft")
            plan = self._plan("fwd", cfg.fft, x.shape[0])
            with self._span("fft.plan.fwd"):
                xhat = plan.execute(x, phase="fft", workspace=ws)
            if abft:
                with self._span("util.checksum.energy_verify_fwd"):
                    plan.verify_forward_energy(x, xhat, phase="fft")
            with self._span("core.reorder.fwd"):
                vhat = soti_to_tosi(
                    xhat, precision=cfg.reorder_precision("fft", "sbgemv"),
                    device=dev, phase="sbgemv", workspace=ws, tag="fwd_reorder",
                    backend=be,
                )
            self._keep("fft.plan.fwd or core.reorder.fwd", vhat)
            vhat = self._cast(vhat, cfg.sbgemv, "cast_sbgemv")
            if block:
                panel = vhat.reshape(eng.n_freq, nx, k)
                yhat = self._phase3_block(panel, op, cfg.sbgemv)
            else:
                panel = vhat[:, :, None]
                yhat = self._phase3_vector(vhat, op, cfg.sbgemv)
            self._keep("phase-3 kernel", yhat)
            if abft:
                with self._span("util.checksum.gemm_verify"):
                    gemm_checksum_verify(
                        eng.spectrum(cfg.sbgemv), panel, op,
                        yhat if block else yhat[:, :, None],
                        a_conj=(
                            eng.spectrum_conj(cfg.sbgemv) if op is Operation.C else None
                        ),
                        backend=be, phase="sbgemv",
                    )
            with self._span("core.reorder.bwd"):
                yhat = tosi_to_soti(
                    yhat.reshape(eng.n_freq, ny * k),
                    precision=cfg.reorder_precision("sbgemv", "ifft"),
                    device=dev, phase="sbgemv", workspace=ws, tag="bwd_reorder",
                    backend=be,
                )
            self._keep("core.reorder.bwd", yhat)
            yhat = self._cast(yhat, cfg.ifft, "cast_ifft")
            plan = self._plan("inv", cfg.ifft, yhat.shape[0])
            with self._span("fft.plan.inv"):
                y = plan.inverse(yhat, phase="ifft", workspace=ws)
            if abft:
                with self._span("util.checksum.energy_verify_inv"):
                    plan.verify_inverse_energy(yhat, y, phase="ifft")
            with self._span("core.phases.unpad"):
                unpad_from_soti(
                    y, nt, cfg.unpad, device=dev, phase="unpad",
                    out=out.reshape(nt, ny * k), backend=be,
                )
        finally:
            ws.end_apply()
        return out

    def verify(
        self,
        run_engine: Callable[[], np.ndarray],
        v_in: np.ndarray,
        config,
        adjoint: bool,
        replay_out: np.ndarray,
        what: str,
    ) -> None:
        """Require the replay of ``run_engine()``'s apply to match bitwise;
        on a mismatch name the first stage whose bits differ."""
        if np.array_equal(run_engine(), replay_out):
            return
        stage = self._locate(run_engine, v_in, config, adjoint, replay_out)
        raise ReplayDiverged(
            f"phase replay of {what} is not bitwise the engine's result "
            f"(first differing stage: {stage}); per-layer numbers withheld"
        )

    def _locate(self, run_engine, v_in, config, adjoint, replay_out) -> str:
        """Replay and engine share arena buffers (same tags, shapes and
        checkout order), so after an engine apply each buffer holds the
        engine's intermediate: compare them with the replay's copies."""
        self._stages = {}
        self.apply(v_in, config, adjoint, replay_out)
        buffers, self._stages = self._stages, None
        mine = {name: np.array(buf, copy=True) for name, buf in buffers.items()}
        run_engine()
        for name, buf in buffers.items():
            if not np.array_equal(buf, mine[name]):
                return name
        return "after core.reorder.bwd (cast, fft.plan.inv or core.phases.unpad)"


def computed_counters(engine: FFTMatvec, k: int, config, adjoint: bool) -> Dict[str, float]:
    """Bytes and flops of one apply *computed from array sizes* (not
    measured traffic — cache misses are invisible to this count)."""
    cfg = PrecisionConfig.parse(config)
    nx = engine.nd if adjoint else engine.nm
    ny = engine.nm if adjoint else engine.nd
    n, nf = engine.n_pad, engine.n_freq
    r_fft, c_fft = real_dtype(cfg.fft).itemsize, complex_dtype(cfg.fft).itemsize
    r_ifft, c_ifft = real_dtype(cfg.ifft).itemsize, complex_dtype(cfg.ifft).itemsize
    c_gemm = complex_dtype(cfg.sbgemv).itemsize
    c_r1 = complex_dtype(cfg.reorder_precision("fft", "sbgemv")).itemsize
    c_r2 = complex_dtype(cfg.reorder_precision("sbgemv", "ifft")).itemsize
    fft_bytes = nx * k * (n * r_fft + nf * c_fft) + ny * k * (nf * c_ifft + n * r_ifft)
    reorder_bytes = nx * k * nf * (c_fft + c_r1) + ny * k * nf * (c_gemm + c_r2)
    gemm_bytes = nf * c_gemm * (engine.nd * engine.nm + nx * k + ny * k)
    flops = 8.0 * nf * engine.nd * engine.nm * k  # complex multiply-add = 8 real flops
    return {
        "fft.plan.computed_bytes": float(fft_bytes),
        "core.reorder.computed_bytes": float(reorder_bytes),
        "blas.dispatch.computed_bytes": float(gemm_bytes),
        "blas.dispatch.flops": flops,
        "blas.dispatch.flops_per_byte": flops / gemm_bytes,
    }
