"""Composable linear operators over (Nt, nx) block vectors.

Every consumer of the five-phase engine — CG for the MAP solve,
posterior sampling, OED — ultimately applies compositions of F, F* and
regularization terms to block vectors.  This module gives those
compositions a first-class, *blocked* interface:

* :class:`LinearOperator` — the abstract base: ``apply`` acts on one
  ``(Nt, nx)`` block vector, ``apply_block`` on a ``(Nt, nx, k)``
  multi-RHS block.  Subclasses that implement only ``apply`` get a
  column-looped ``apply_block`` for free; subclasses backed by the
  engine's blocked pipeline (:meth:`~repro.core.matvec.FFTMatvec.matmat`)
  override it so all k vectors share one pad / FFT / GEMM / IFFT / unpad
  pass.
* :class:`ForwardOperator` / :class:`AdjointOperator` — F and F* wrapping
  an :class:`~repro.core.matvec.FFTMatvec` at a fixed precision config.
* :class:`GaussNewtonHessian` — ``F* Gn^{-1} F + R``: the MAP/posterior
  Hessian assembled from any forward operator and an optional
  regularization operator (e.g. the prior precision), with a fully
  blocked action.
* ``A.at(config)`` — ``A`` with its engine applies at another config
  (what :func:`~repro.inverse.cg.conjugate_gradient` iterates on).
* Algebra: ``A + B``, ``c * A``, ``A @ B`` build sum / scaled / composed
  operators; :class:`IdentityOperator` and :class:`CallableOperator`
  adapt plain callables (sparse solves, prior actions) into the same
  interface.

Shapes are tuples ``(nt, nx)``; blocks carry the RHS index as a trailing
axis, matching ``matmat``'s convention.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple, Union

import numpy as np

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

    # -- core actions (subclasses implement _apply, may override _apply_block)
    def _apply(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _apply_block(self, V: np.ndarray) -> np.ndarray:
        # Fallback: loop the columns. Engine-backed operators override
        # this with a single blocked pipeline pass.
        return np.stack(
            [self._apply(V[:, :, j]) for j in range(V.shape[2])], axis=-1
        )

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

    @property
    def T(self) -> "LinearOperator":
        """Alias for :meth:`adjoint` (the operators here are real)."""
        return self.adjoint()

    # -- algebra ---------------------------------------------------------------
    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        return _SumOperator(self, other)

    def __mul__(self, scalar: float) -> "LinearOperator":
        return _ScaledOperator(self, float(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        return _ComposedOperator(self, other)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}({self.in_shape} -> {self.out_shape})"
        )


class _SumOperator(LinearOperator):
    def __init__(self, a: LinearOperator, b: LinearOperator) -> None:
        if a.in_shape != b.in_shape or a.out_shape != b.out_shape:
            raise ReproError(
                f"cannot add operators with shapes {a.in_shape}->{a.out_shape} "
                f"and {b.in_shape}->{b.out_shape}"
            )
        super().__init__(a.in_shape, a.out_shape)
        self.a, self.b = a, b

    def _apply(self, v: np.ndarray) -> np.ndarray:
        return self.a._apply(v) + self.b._apply(v)

    def _apply_block(self, V: np.ndarray) -> np.ndarray:
        return self.a._apply_block(V) + self.b._apply_block(V)

    def adjoint(self) -> LinearOperator:
        return _SumOperator(self.a.adjoint(), self.b.adjoint())


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


class _ComposedOperator(LinearOperator):
    """``(A @ B)(v) = A(B(v))``."""

    def __init__(self, a: LinearOperator, b: LinearOperator) -> None:
        if b.out_shape != a.in_shape:
            raise ReproError(
                f"cannot compose: inner produces {b.out_shape}, "
                f"outer expects {a.in_shape}"
            )
        super().__init__(b.in_shape, a.out_shape)
        self.a, self.b = a, b

    def _apply(self, v: np.ndarray) -> np.ndarray:
        return self.a._apply(self.b._apply(v))

    def _apply_block(self, V: np.ndarray) -> np.ndarray:
        return self.a._apply_block(self.b._apply_block(V))

    def adjoint(self) -> LinearOperator:
        return _ComposedOperator(self.b.adjoint(), self.a.adjoint())


class IdentityOperator(LinearOperator):
    """The identity on ``(nt, nx)`` block vectors."""

    def __init__(self, shape: Shape) -> None:
        super().__init__(shape, shape)

    def _apply(self, v: np.ndarray) -> np.ndarray:
        return v.copy()

    def _apply_block(self, V: np.ndarray) -> np.ndarray:
        return V.copy()

    def adjoint(self) -> LinearOperator:
        return self


class CallableOperator(LinearOperator):
    """Adapt a plain callable (prior action, sparse solve) to the interface.

    Parameters
    ----------
    fn:
        Maps one (nt, nx_in) array to (nt, nx_out).
    fn_adjoint:
        Optional adjoint callable; enables :meth:`adjoint`.
    fn_block:
        Optional blocked form mapping (nt, nx_in, k) to (nt, nx_out, k);
        columns are looped through ``fn`` when omitted.
    """

    def __init__(
        self,
        in_shape: Shape,
        out_shape: Shape,
        fn: Callable[[np.ndarray], np.ndarray],
        fn_adjoint: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        fn_block: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> None:
        super().__init__(in_shape, out_shape)
        self._fn = fn
        self._fn_adjoint = fn_adjoint
        self._fn_block = fn_block

    def _apply(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(self._fn(v), dtype=np.float64)

    def _apply_block(self, V: np.ndarray) -> np.ndarray:
        if self._fn_block is not None:
            return np.asarray(self._fn_block(V), dtype=np.float64)
        return super()._apply_block(V)

    def adjoint(self) -> LinearOperator:
        if self._fn_adjoint is None:
            raise ReproError("CallableOperator built without an adjoint callable")
        return CallableOperator(
            self.out_shape, self.in_shape, self._fn_adjoint, fn_adjoint=self._fn
        )


class ForwardOperator(LinearOperator):
    """F: parameter blocks (Nt, Nm) -> data blocks (Nt, Nd), engine-backed.

    ``apply`` runs one five-phase matvec; ``apply_block`` runs the
    blocked pipeline (one pass for all k columns) — the whole point of
    the multi-RHS path.
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
