"""Composable linear operators over (Nt, nx) block vectors.

Every consumer of the five-phase engine — CG for the MAP solve,
posterior sampling, OED — ultimately applies compositions of F, F* and
regularization terms to block vectors.  This module gives those
compositions a first-class, *blocked* interface:

* :class:`LinearOperator` — the abstract base: ``apply_block`` acts on a
  ``(Nt, nx, k)`` multi-RHS block, ``apply`` on one ``(Nt, nx)`` block
  vector as the width-1 block.  Subclasses implement the block action;
  those backed by the engine (:meth:`~repro.core.matvec.FFTMatvec.matmat`)
  run all k vectors through one pad / FFT / GEMM / IFFT / unpad pass and
  route a vector to :meth:`~repro.core.matvec.FFTMatvec.matvec`.
* :class:`ForwardOperator` / :class:`AdjointOperator` — F and F* wrapping
  an :class:`~repro.core.matvec.FFTMatvec` at a fixed precision config.
* :class:`GaussNewtonHessian` — ``F* Gn^{-1} F + R``: the MAP/posterior
  Hessian assembled from any forward operator and an optional
  regularization operator (e.g. the prior precision), with a fully
  blocked action.
* ``A.at(config)`` — ``A`` with its engine applies at another config
  (what :func:`~repro.inverse.cg.conjugate_gradient` iterates on), and
  ``A.preconditioner`` — an SPD approximation of ``A^-1`` that both CG
  solvers apply, or ``None`` (see :class:`GaussNewtonHessian`).
* ``c * A`` scales an operator (a ridge is ``c * IdentityOperator``);
  :class:`CallableOperator` adapts a plain block callable (a sparse
  solve, a prior action) into the same interface.

Shapes are tuples ``(nt, nx)``; blocks carry the RHS index as a trailing
axis, matching ``matmat``'s convention.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Optional, Tuple, Union

import numpy as np

from repro.backend import NumpyBackend
from repro.core.matvec import FFTMatvec
from repro.core.precision import PrecisionConfig
from repro.util.validation import ReproError

__all__ = [
    "LinearOperator",
    "IdentityOperator",
    "CallableOperator",
    "ForwardOperator",
    "AdjointOperator",
    "GaussNewtonHessian",
]

Shape = Tuple[int, int]

_DOUBLE = PrecisionConfig.parse("ddddd")
_FFT = NumpyBackend().fft  # typed: float32 in, single-precision transform
# Smallest double spectrum worth a lowered or a preconditioned solve.
# Lowered vs plain solve wall, (Nt, 24, 96) Hessians, Xeon host, BLAS on
# one thread: 0.29 MB +6 %, 0.59 MB -1 %, 1.2 MB -23 %, 2.4 MB -28 %,
# 4.8 MB -19 % ((16, 6, 12): +18 %).
_LOWER_MIN_SPECTRUM_BYTES = 1 << 20
# M applies in single precision, so it stays SPD only while its
# eigenvalue spread (s_max^2 + mu) / mu = 1 + 4 kappa^2 is far inside
# 1 / eps(float32): admitted while spread * eps <= 1e-2, i.e. kappa(F_hat)
# <= 145.  solve_small's kappa is 3.1.  With one sensor row damped 1e5x
# (kappa 2e5) a forced M left ||r|| at 1/6 of its start after 40
# iterations (plain CG: 1/7000) and <r, M r> went negative at iter 151.
_M_SPREAD_BUDGET = 1e-2


def _large_double_engine(op: "LinearOperator") -> Optional[FFTMatvec]:
    """The engine of ``op`` if ``op`` is all-double on one
    :class:`FFTMatvec` whose double spectrum is at least
    ``_LOWER_MIN_SPECTRUM_BYTES``, else ``None``."""
    eng = op.engine
    if op.config != _DOUBLE or not isinstance(eng, FFTMatvec):
        return None
    nbytes = eng.n_freq * eng.nd * eng.nm * np.dtype(np.complex128).itemsize
    return eng if nbytes >= _LOWER_MIN_SPECTRUM_BYTES else None


class LinearOperator:
    """A linear map between (Nt, nx)-shaped block-vector spaces.

    Parameters
    ----------
    in_shape / out_shape:
        ``(nt, nx)`` of the input and output block vectors.
    """

    # The engine and precision config of an engine-backed operator's
    # applies; an operator with no engine of its own has neither.
    engine: Optional[FFTMatvec] = None
    config: Optional[PrecisionConfig] = None
    # An SPD approximation of this operator's inverse for CG, if it has one.
    preconditioner: Optional["LinearOperator"] = None

    def __init__(self, in_shape: Shape, out_shape: Shape) -> None:
        self.in_shape = (int(in_shape[0]), int(in_shape[1]))
        self.out_shape = (int(out_shape[0]), int(out_shape[1]))
        self._lowered: dict = {}

    def at(self, config: Union[str, PrecisionConfig]) -> "LinearOperator":
        """This operator with its engine applies at ``config``: rebuilt on
        the same engine on first request and kept here.  An operator with
        no engine, or already at ``config``, is returned as is."""
        cfg = PrecisionConfig.parse(config)
        if self.config is None or self.config == cfg:
            return self
        if cfg not in self._lowered:
            self._lowered[cfg] = self._rebuilt_at(cfg)
        return self._lowered[cfg]

    def _rebuilt_at(self, config: PrecisionConfig) -> "LinearOperator":
        return type(self)(self.engine, config)  # F and F*; the Hessian overrides

    # -- core actions (subclasses implement _apply_block, may override _apply)
    def _apply(self, v: np.ndarray) -> np.ndarray:
        return self._apply_block(v[:, :, None])[:, :, 0]

    def _apply_block(self, V: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- validated public API ------------------------------------------------
    def _check(self, v: np.ndarray, block: bool) -> np.ndarray:
        a = np.asarray(v, dtype=np.float64)
        want_ndim = 3 if block else 2
        if a.ndim != want_ndim or a.shape[:2] != self.in_shape:
            kind = f"{self.in_shape + ('k',)}" if block else f"{self.in_shape}"
            raise ReproError(
                f"{type(self).__name__} expects input shaped {kind}, "
                f"got {a.shape}"
            )
        return a

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Apply to one ``(nt, nx)`` block vector."""
        return self._apply(self._check(v, block=False))

    def apply_block(self, V: np.ndarray) -> np.ndarray:
        """Apply to a ``(nt, nx, k)`` multi-RHS block."""
        return self._apply_block(self._check(V, block=True))

    def __call__(self, v: np.ndarray) -> np.ndarray:
        """Blocks and vectors both welcome (dispatch on ndim)."""
        a = np.asarray(v)
        return self.apply_block(a) if a.ndim == 3 else self.apply(a)

    # -- adjoint -------------------------------------------------------------
    def adjoint(self) -> "LinearOperator":
        """The adjoint operator, when the subclass defines one."""
        raise ReproError(f"{type(self).__name__} has no adjoint defined")

    # -- algebra ---------------------------------------------------------------
    def __mul__(self, scalar: float) -> "LinearOperator":
        return _ScaledOperator(self, float(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}({self.in_shape} -> {self.out_shape})"
        )


class _ScaledOperator(LinearOperator):
    def __init__(self, a: LinearOperator, scalar: float) -> None:
        super().__init__(a.in_shape, a.out_shape)
        self.a, self.scalar = a, scalar

    def _apply(self, v: np.ndarray) -> np.ndarray:
        return self.scalar * self.a._apply(v)

    def _apply_block(self, V: np.ndarray) -> np.ndarray:
        return self.scalar * self.a._apply_block(V)

    def adjoint(self) -> LinearOperator:
        return _ScaledOperator(self.a.adjoint(), self.scalar)


class IdentityOperator(LinearOperator):
    """The identity on ``(nt, nx)`` block vectors."""

    def __init__(self, shape: Shape) -> None:
        super().__init__(shape, shape)

    def _apply_block(self, V: np.ndarray) -> np.ndarray:
        return V.copy()

    def adjoint(self) -> LinearOperator:
        return self


class CallableOperator(LinearOperator):
    """Adapt a plain block callable (prior action, sparse solve) to the
    interface.

    Parameters
    ----------
    fn:
        Maps an (nt, nx_in, k) block to (nt, nx_out, k); a vector is its
        width-1 block.
    fn_adjoint:
        Optional adjoint block callable; enables :meth:`adjoint`.
    """

    def __init__(
        self,
        in_shape: Shape,
        out_shape: Shape,
        fn: Callable[[np.ndarray], np.ndarray],
        fn_adjoint: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> None:
        super().__init__(in_shape, out_shape)
        self._fn = fn
        self._fn_adjoint = fn_adjoint

    def _apply_block(self, V: np.ndarray) -> np.ndarray:
        return np.asarray(self._fn(V), dtype=np.float64)

    def adjoint(self) -> LinearOperator:
        if self._fn_adjoint is None:
            raise ReproError("CallableOperator built without an adjoint callable")
        return CallableOperator(
            self.out_shape, self.in_shape, self._fn_adjoint, fn_adjoint=self._fn
        )


class ForwardOperator(LinearOperator):
    """F: parameter blocks (Nt, Nm) -> data blocks (Nt, Nd), engine-backed.

    ``apply`` runs :meth:`~repro.core.matvec.FFTMatvec.matvec` (the
    engine's width-1 block); ``apply_block`` runs ``matmat``, one pass
    for all k columns — the whole point of the multi-RHS path.
    """

    def __init__(
        self,
        engine: FFTMatvec,
        config: Union[str, PrecisionConfig] = "ddddd",
    ) -> None:
        super().__init__((engine.nt, engine.nm), (engine.nt, engine.nd))
        self.engine = engine
        self.config = PrecisionConfig.parse(config)

    def _apply(self, v: np.ndarray) -> np.ndarray:
        return self.engine.matvec(v, config=self.config)

    def _apply_block(self, V: np.ndarray) -> np.ndarray:
        return self.engine.matmat(V, config=self.config)

    def adjoint(self) -> "AdjointOperator":
        return AdjointOperator(self.engine, self.config)


class AdjointOperator(LinearOperator):
    """F*: data blocks (Nt, Nd) -> parameter blocks (Nt, Nm)."""

    def __init__(
        self,
        engine: FFTMatvec,
        config: Union[str, PrecisionConfig] = "ddddd",
    ) -> None:
        super().__init__((engine.nt, engine.nd), (engine.nt, engine.nm))
        self.engine = engine
        self.config = PrecisionConfig.parse(config)

    def _apply(self, v: np.ndarray) -> np.ndarray:
        return self.engine.rmatvec(v, config=self.config)

    def _apply_block(self, V: np.ndarray) -> np.ndarray:
        return self.engine.rmatmat(V, config=self.config)

    def adjoint(self) -> ForwardOperator:
        return ForwardOperator(self.engine, self.config)


class _CirculantPreconditioner(LinearOperator):
    """``M = scale * P (I - B^H B) P^T`` per frequency of the ``2 Nt``
    circulant embedding: pad, FFT, ``t = B v``, ``v - B^H t``, IFFT,
    unpad.  With ``scale = sigma^2 / mu`` this is ``sigma^2 (C^H C + mu
    I)^-1`` restricted to the first ``Nt`` steps, so SPD
    (:class:`~repro.core.matvec.GramFactor`).

    M is single precision end to end: a float32 pad, the numpy backend's
    typed FFTs (``np.fft`` computes float32 in double) and the two GEMVs
    against the complex64 ``B``, M's one pass over an array the size of
    the spectrum; only the result is double.  ``B^H y`` is ``conj(y^H
    B)^T``, a GEMM on a transposed view of ``y``, not a second copy of
    ``B``.  Buffers are kept per block width.
    """

    def __init__(self, engine: FFTMatvec, B: np.ndarray, scale: float) -> None:
        super().__init__((engine.nt, engine.nm), (engine.nt, engine.nm))
        self.B, self.scale = B, scale
        self._bufs: dict = {}

    def _buffers(self, k: int) -> Tuple[np.ndarray, ...]:
        (nt, nm), (n_freq, r, _) = self.in_shape, self.B.shape
        return (
            np.zeros((2 * nt, nm, k), np.float32),  # padded input, then the IFFT's output
            np.empty((n_freq, nm, k), np.complex64),
            np.empty((n_freq, r, k), np.complex64),
            np.empty((n_freq, k, nm), np.complex64),  # (B^H t)^H
        )

    def _apply_block(self, V: np.ndarray) -> np.ndarray:
        nt, k = self.in_shape[0], V.shape[2]
        if k not in self._bufs:
            self._bufs[k] = self._buffers(k)
        pad, vhat, t, w = self._bufs[k]
        pad[:nt] = V
        _FFT.rfft(pad, axis=0, out=vhat)
        np.matmul(self.B, vhat, out=t)
        np.conjugate(t, out=t)
        np.matmul(t.transpose(0, 2, 1), self.B, out=w)  # (B^H B v)^H, per frequency
        np.conjugate(w, out=w)
        np.subtract(vhat, w.transpose(0, 2, 1), out=vhat)
        _FFT.irfft(vhat, n=2 * nt, axis=0, out=pad)
        out = np.multiply(pad[:nt], self.scale, dtype=np.float64)
        pad[nt:] = 0.0
        return out

    def adjoint(self) -> LinearOperator:
        return self


def _ridge(reg: Optional[LinearOperator]) -> Optional[float]:
    """``c`` when ``reg`` is ``c * I`` (``None`` is ``c = 0``), else ``None``."""
    if reg is None:
        return 0.0
    if isinstance(reg, _ScaledOperator) and isinstance(reg.a, IdentityOperator):
        return reg.scalar
    return 1.0 if isinstance(reg, IdentityOperator) else None


class GaussNewtonHessian(LinearOperator):
    """The (regularized) Gauss-Newton Hessian ``F* Gn^{-1} F + R``.

    Parameters
    ----------
    forward:
        The forward map F (typically a :class:`ForwardOperator`); its
        adjoint provides F*.
    noise_std:
        Noise standard deviation; ``Gn^{-1} = noise_std^{-2} I``.
    reg:
        Optional regularization operator R on parameter blocks (e.g. a
        :class:`CallableOperator` wrapping the prior precision).  With
        ``reg`` SPD the Hessian is SPD and CG/block-CG apply.

    Its :attr:`preconditioner` is the block-circulant inverse of
    ``(F* F + mu I) / noise_std^2`` at ``mu = 0.25 s_min^2`` (from the
    Gram spectrum, never from the ridge), built on first use from the
    engine's :meth:`~repro.core.matvec.FFTMatvec.gram_factor` — or
    ``None`` unless ``forward`` is an all-double :class:`ForwardOperator`
    on one :class:`FFTMatvec` with a double spectrum of at least 1 MiB
    and ``reg`` is ``None`` or
    ``c * I`` with ``0 <= c noise_std^2 <= mu``, and kappa(F_hat) leaves
    M SPD in single precision (``1 + 4 kappa^2 <= 1e-2 / eps(float32)``).
    """

    def __init__(
        self,
        forward: LinearOperator,
        noise_std: float = 1.0,
        reg: Optional[LinearOperator] = None,
    ) -> None:
        if noise_std <= 0:
            raise ReproError(f"noise_std must be positive, got {noise_std}")
        if reg is not None and (
            reg.in_shape != forward.in_shape or reg.out_shape != forward.in_shape
        ):
            raise ReproError(
                f"regularization must map {forward.in_shape} to itself, got "
                f"{reg.in_shape} -> {reg.out_shape}"
            )
        super().__init__(forward.in_shape, forward.in_shape)
        self.forward = forward
        self.backward = forward.adjoint()
        self.noise_std = float(noise_std)
        self.reg = reg
        self.engine, self.config = forward.engine, forward.config

    def _rebuilt_at(self, config: PrecisionConfig) -> "GaussNewtonHessian":
        return GaussNewtonHessian(self.forward.at(config), self.noise_std, self.reg)

    @cached_property
    def preconditioner(self) -> Optional[LinearOperator]:
        """M for CG, or ``None`` when a gate turns it away (class doc)."""
        engine, c = _large_double_engine(self), _ridge(self.reg)
        if engine is None or not isinstance(self.forward, ForwardOperator) or c is None or c < 0.0:
            return None
        factor = engine.gram_factor()
        if not 0.0 < factor.mu < np.inf or c * self.noise_std**2 > factor.mu:
            return None
        spread = 1.0 + (factor.kappa * factor.s_min) ** 2 / factor.mu  # cond(M)
        if spread * np.finfo(np.float32).eps > _M_SPREAD_BUDGET:
            return None
        return _CirculantPreconditioner(engine, factor.B, self.noise_std**2 / factor.mu)

    def _apply(self, v: np.ndarray) -> np.ndarray:
        out = self.backward._apply(self.forward._apply(v) / self.noise_std**2)
        if self.reg is not None:
            out = out + self.reg._apply(v)
        return out

    def _apply_block(self, V: np.ndarray) -> np.ndarray:
        out = self.backward._apply_block(
            self.forward._apply_block(V) / self.noise_std**2
        )
        if self.reg is not None:
            out = out + self.reg._apply_block(V)
        return out

    def adjoint(self) -> "GaussNewtonHessian":
        return self  # symmetric by construction
