"""Matrix-free conjugate gradient, vector and blocked multi-RHS forms.

Used to solve the MAP system ``H m = rhs`` with Hessian actions composed
of FFTMatvec F/F* applications — the "traditional" solution strategy the
paper references ([14]).  Operands are (nt, n) block vectors; the solver
only needs an inner product and an operator callback.

**Mixed precision with residual replacement.**  Handed an all-double
engine-backed operator that passes the gates of :func:`_lowered`,
:func:`conjugate_gradient` iterates on it at ``ddsdd`` (Phase 3 in
single halves the spectrum stream that leads a k = 1 apply) and
replaces the recursive residual by ``b - A x`` in double each time it
has fallen 100x (van der Vorst & Ye's residual replacement, the
"reliable updates" of mixed-precision GPU CG).  Only a replaced residual
converges, so the true double residual meets ``tol``.

**A single-precision preconditioner.**  Handed an operator whose
``preconditioner`` is not ``None`` — a
:class:`~repro.core.operator.GaussNewtonHessian`, or its bound ``apply``
/ ``apply_block``, that passes the gates its class doc lists: all-double
on one engine, a double spectrum of at least 1 MiB, ``reg`` ``None`` or
``c I`` with ``0 <= c sigma^2 <= mu`` — both solvers run preconditioned
CG (Strang 1986; T. Chan 1988): ``alpha = <r, z> / <p, A p>``, ``z = M
r``, ``p = z + beta p`` with Fletcher-Reeves ``beta``.  Per frequency
``f`` of the 2 Nt circulant embedding ``M_f = sigma^2 (I - B_f^H B_f) /
mu``, with ``B_f = diag(s / sqrt(s^2 + mu)) V_f^H`` from the SVD ``C_f =
U_f diag(s) V_f^H`` of the unnormalized spectrum: that is ``sigma^2
(C_f^H C_f + mu I)^-1``.  ``mu = 0.25 s_min^2`` comes from the Gram
spectrum, never from the ridge.  M only has to be SPD and fixed, not
accurate, so it applies in single precision end to end: a float32 pad,
the typed single-precision FFT, GEMV ``B``, GEMV ``B^H``, IFFT, unpad,
the two GEMVs in complex64 against one complex64 ``B``.  The SVD pass
that gives kappa(F_hat) gives ``B``
(:meth:`~repro.core.matvec.FFTMatvec.gram_factor`): it runs on the first
admitted solve and is kept on the engine.  M runs on the host and is not
booked on a device clock.  At (64, 24, 96), ridge 1e-8, tol 1e-8 (numpy,
one BLAS thread, 2-vCPU Xeon; five right-hand sides) vector CG takes
98-104 -> 43-45 iterations and block CG (k = 8) 102-103 -> 45; one
k = 1 M apply costs ~130 us against ~270 us for a ``ddsdd`` Hessian
apply, and the SVD pass 26 ms once per engine.  Its single-precision
FFT pair makes M's steps ~190 us at k = 1 and ~1.3 ms at k = 8 against
~225 us and ~1.6 ms with a double pair (one process, same host), at the
same iteration counts.  Convergence is still tested on
``||r||``, so ``tol`` keeps its meaning.  A replaced residual gets its
``z = M r`` like any other, and escalation, breakdown kinds and restarts
(``p = z``) keep their meaning.

:func:`block_conjugate_gradient` solves ``k`` right-hand sides at once.
The per-column recurrences are the classic (preconditioned) CG
recurrences, kept *independent* (no cross-column coupling; M acts on
each column alone) and exact, so column ``j`` of the block solve meets
the stopping rule of a vector solve of column ``j`` (and agrees with it
to the tolerance — not to rounding, since the vector solve may iterate
lowered).  Every operator action is one blocked
application (e.g. a Gauss-Newton Hessian built on
``FFTMatvec.matmat``), so the k solves share each pipeline pass instead
of re-paying pad/FFT-plan/reorder overhead per vector.  Columns freeze
once converged; the solve runs until all columns converge or ``maxiter``.

Both solvers are **resumable**: pass ``checkpoint_every=`` and a
``checkpoint=`` callback to receive a deep-copied :class:`CGState` /
:class:`BlockCGState` at iteration boundaries, and pass one back via
``resume=`` to continue a killed solve.  The CG recurrence is a pure
function of (X, R, P, rs), so a resumed solve replays the exact
floating-point sequence of the uninterrupted one: with a deterministic
operator (``reduction="pairwise"`` on the engines) the resumed result is
**bitwise-identical**, at any interruption boundary.  A state records
whether its loop was preconditioned and resumes in that loop.  States
round-trip through :class:`repro.util.checkpoint.CheckpointStore` via
``to_arrays``/``from_arrays``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.error_model import relative_error_bound
from repro.core.operator import LinearOperator, _large_double_engine
from repro.core.precision import PrecisionConfig
from repro.util.checkpoint import CheckpointSchemaError
from repro.util.validation import ReproError

__all__ = [
    "CGBreakdownError",
    "CGResult",
    "CGState",
    "conjugate_gradient",
    "BlockCGResult",
    "BlockCGState",
    "block_conjugate_gradient",
]


class CGBreakdownError(ReproError):
    """CG recurrence breakdown, carrying a restartable state snapshot.

    ``kind`` says what broke: ``"non_spd"`` (non-positive curvature —
    the operator is not SPD), ``"rho_breakdown"`` (a recurrence scalar
    went non-finite, the signature of NaN/Inf leaking out of the
    operator), or ``"stagnation"`` (no residual progress over
    ``stagnation_window`` iterations).  ``state`` is the last *healthy*
    iteration-boundary snapshot (:class:`CGState` /
    :class:`BlockCGState`) — persist it through
    :class:`repro.util.checkpoint.CheckpointStore` and pass it back via
    ``resume=`` to restart (e.g. after rebuilding a corrupted engine)
    without repaying the completed iterations.
    """

    def __init__(self, kind: str, detail: str, state=None) -> None:
        super().__init__(detail)
        self.kind = kind
        self.state = state


@dataclass
class CGResult:
    """Outcome of a CG solve: also the config the iterations applied
    (``None`` for a plain callable), the applies of the operator as
    given, whether the solve gave up its lowered operator, and whether
    it ran preconditioned."""

    x: np.ndarray
    converged: bool
    iterations: int
    residual_norms: List[float] = field(default_factory=list)
    iteration_config: Optional[str] = None
    exact_applies: int = 0
    escalated: bool = False
    preconditioned: bool = False

    @property
    def final_residual(self) -> float:
        return self.residual_norms[-1] if self.residual_norms else float("nan")


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.vdot(a, b).real)


def _check_options(checkpoint_every: Optional[int], stagnation_window: Optional[int]) -> None:
    for name, value in (("checkpoint_every", checkpoint_every), ("stagnation_window", stagnation_window)):
        if value is not None and value < 1:
            raise ReproError(f"{name} must be >= 1, got {value}")


_LOWERED = PrecisionConfig.parse("ddsdd")
# The residual is replaced in double once it has fallen by this factor
# since the last replacement; the lowered operator's Eq. (6) error (F
# plus F*, kappa(F_hat) included) must be within it, so that every
# stretch between replacements contracts the true residual.
_REPLACE_DROP = 1e-2


def _owner(operator) -> Optional[LinearOperator]:
    """The :class:`LinearOperator` a CG callable is — the operator itself
    or its bound ``apply`` / ``apply_block`` — or ``None`` for any other
    callable."""
    owner = operator if isinstance(operator, LinearOperator) else getattr(operator, "__self__", None)
    if not isinstance(owner, LinearOperator):
        return None
    return owner if operator in (owner, owner.apply, owner.apply_block) else None


def _lowered(owner: Optional[LinearOperator]) -> Optional[LinearOperator]:
    """``owner`` at ``ddsdd`` if it is all-double on one engine whose
    spectrum is worth halving and whose lowered error is in budget."""
    eng = None if owner is None else _large_double_engine(owner)
    if eng is None:
        return None
    kappa = eng.condition_number_hat()
    bound = sum(
        relative_error_bound(_LOWERED, eng.nt, eng.nm, eng.nd, kappa=kappa, adjoint=adjoint)
        for adjoint in (False, True)
    )
    return owner.at(_LOWERED) if bound <= _REPLACE_DROP else None


def _preconditioner(owner: Optional[LinearOperator], resume) -> Optional[LinearOperator]:
    """The M a solve runs with: ``owner``'s, except that a state saved
    by an unpreconditioned loop resumes in that loop."""
    M = None if owner is None else owner.preconditioner
    if resume is None:
        return M
    if resume.preconditioned and M is None:
        raise ReproError(
            "the resume state was saved by a preconditioned solve; "
            "resume it on the operator that saved it"
        )
    return M if resume.preconditioned else None


def _preconditioner_breakdown(rz, where: str, state) -> CGBreakdownError:
    """The breakdown an ``<r, M r>`` that is not positive signals: NaN /
    Inf from M is ``rho_breakdown``, a non-positive value ``non_spd``."""
    rz = np.atleast_1d(rz)
    if not np.all(np.isfinite(rz)):
        return CGBreakdownError(
            "rho_breakdown",
            f"<r, M r> went non-finite {where}; the preconditioner returned NaN/Inf",
            state=state,
        )
    return CGBreakdownError(
        "non_spd",
        f"<r, M r> = {float(np.min(rz)):g} {where}; the preconditioner is not SPD",
        state=state,
    )


@dataclass
class CGState:
    """Exact vector-CG state at an iteration boundary.

    Everything the recurrence reads: restarting from a state and running
    iteration ``iteration + 1`` onward performs the same floating-point
    operations, in the same order, as the uninterrupted solve.  ``rs`` is
    ``<r, z>`` (``<r, r>`` when not preconditioned), ``anchor`` the norm
    of the last replaced (double) residual, ``escalated`` whether the
    iteration has left its lowered operator, ``preconditioned`` whether
    the loop applies M.
    """

    x: np.ndarray
    r: np.ndarray
    p: np.ndarray
    rs: float
    bnorm: float
    norms: List[float]
    iteration: int
    anchor: float
    escalated: bool = False
    exact_applies: int = 0
    preconditioned: bool = False

    def copy(self) -> "CGState":
        """Deep copy — resuming never aliases the caller's snapshot."""
        return replace(
            self, x=self.x.copy(), r=self.r.copy(), p=self.p.copy(), norms=list(self.norms)
        )

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Flatten to named arrays for a :class:`CheckpointStore`."""
        return {
            "x": self.x,
            "r": self.r,
            "p": self.p,
            "scalars": np.array([self.rs, self.bnorm, self.anchor, self.escalated,
                                 self.exact_applies, self.preconditioned], dtype=np.float64),
            "norms": np.asarray(self.norms, dtype=np.float64),
            "iteration": np.array(self.iteration, dtype=np.int64),
        }

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray]) -> "CGState":
        """Rebuild from :meth:`to_arrays` output (checkpoint load path).
        Raises :class:`~repro.util.checkpoint.CheckpointSchemaError` on a
        state without all six scalars."""
        scalars = [float(v) for v in np.asarray(arrays["scalars"], dtype=np.float64)]
        if len(scalars) != 6:
            raise CheckpointSchemaError.incomplete(
                "CGState", f"{6 - len(scalars)} of its 6 scalars"
            )
        norms = [float(v) for v in np.asarray(arrays["norms"])]
        iteration = int(np.asarray(arrays["iteration"]).reshape(-1)[0])
        rs, bnorm, anchor, escalated, exact, preconditioned = scalars
        return cls(
            x=np.asarray(arrays["x"], dtype=np.float64).copy(),
            r=np.asarray(arrays["r"], dtype=np.float64).copy(),
            p=np.asarray(arrays["p"], dtype=np.float64).copy(),
            rs=rs, bnorm=bnorm, norms=norms, iteration=iteration,
            anchor=anchor, escalated=bool(escalated), exact_applies=int(exact),
            preconditioned=bool(preconditioned),
        )


def conjugate_gradient(
    operator: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    tol: float = 1e-8,
    maxiter: int = 500,
    resume: Optional[CGState] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint: Optional[Callable[[CGState], None]] = None,
    stagnation_window: Optional[int] = None,
) -> CGResult:
    """Solve ``operator(x) = rhs`` for an SPD operator, from ``x = 0``.

    Converges when ``||r|| <= tol * ||rhs||``.  Breakdown — non-positive
    curvature (not SPD; with the regularized Hessian that indicates a
    bug, not a property), a non-finite recurrence scalar, or (when
    ``stagnation_window`` is set) ``stagnation_window`` iterations with
    no residual decrease — raises :class:`CGBreakdownError` carrying the
    last healthy :class:`CGState` for a ``resume=`` restart.

    ``resume=`` continues from a :class:`CGState` (``rhs`` must be the
    same right-hand side).  ``checkpoint_every=n``
    hands a copied state to ``checkpoint`` after every n-th iteration.

    An ``operator`` :func:`_lowered` admits is iterated at ``ddsdd`` with
    residual replacement (module docstring); non-positive curvature from
    it, or a replaced residual that did not contract (the direction then
    restarts from it), switches the rest of the solve to ``operator``.
    An ``operator`` with a ``preconditioner`` runs preconditioned CG
    (module docstring); ``<r, M r>`` non-finite raises ``rho_breakdown``,
    non-positive ``non_spd``.
    """
    b = np.asarray(rhs, dtype=np.float64)
    _check_options(checkpoint_every, stagnation_window)
    owner = _owner(operator)
    lowered = _lowered(owner)
    M = _preconditioner(owner, resume)
    iterated = owner if lowered is None else lowered
    iteration_config = None if iterated is None or iterated.config is None else str(iterated.config)
    n_exact = 0

    def exact(v: np.ndarray) -> np.ndarray:
        nonlocal n_exact
        n_exact += 1
        return operator(v)

    if resume is not None:
        if resume.x.shape != b.shape:
            raise ReproError(
                f"resume state shape {resume.x.shape} != rhs shape {b.shape}"
            )
        state = resume.copy()
        x, r, p = state.x, state.r, state.p
        rs, bnorm, norms = state.rs, state.bnorm, state.norms
        anchor, escalated, n_exact = state.anchor, state.escalated, state.exact_applies
        start = state.iteration
    else:
        x = np.zeros_like(b)
        # From zero r is b exactly: the replacing loop spares that apply.
        r = b.copy() if lowered is not None else b - exact(x)
        p = r.copy() if M is None else None  # z = M r once r is known unconverged
        rs = _dot(r, r)
        bnorm = float(np.linalg.norm(b))
        if bnorm == 0.0:
            x, norms = np.zeros_like(b), [0.0]
        else:
            norms = [float(np.sqrt(rs))]
        anchor, escalated, start = norms[0], False, 0
    iterate = exact if lowered is None or escalated else lowered.apply

    def _result(converged: bool, iterations: int) -> CGResult:
        return CGResult(
            x=x, converged=converged, iterations=iterations, residual_norms=norms,
            iteration_config=iteration_config, exact_applies=n_exact, escalated=escalated,
            preconditioned=M is not None,
        )

    if norms[-1] <= tol * bnorm:
        return _result(True, start)
    if p is None:
        p = M.apply(r)
        rs = _dot(r, p)
        if not rs > 0.0:
            raise _preconditioner_breakdown(rs, "at the start", None)

    def _snapshot(iteration: int) -> CGState:
        # x/r/p are rebound (never mutated in place) each iteration, so
        # at any raise site they still hold the last boundary's values.
        return CGState(
            x=x.copy(), r=r.copy(), p=p.copy(), rs=rs, bnorm=bnorm,
            norms=list(norms), iteration=iteration, anchor=anchor,
            escalated=escalated, exact_applies=n_exact, preconditioned=M is not None,
        )

    for it in range(start + 1, maxiter + 1):
        Ap = iterate(p)
        curvature = _dot(p, Ap)
        if curvature <= 0.0 and iterate is not exact:  # the lowered operator lost definiteness
            iterate, escalated = exact, True
            Ap = iterate(p)
            curvature = _dot(p, Ap)
        if not np.isfinite(curvature):
            raise CGBreakdownError(
                "rho_breakdown",
                f"CG curvature went non-finite ({curvature:g}) at iter {it}; "
                "the operator returned NaN/Inf",
                state=_snapshot(it - 1),
            )
        if curvature <= 0.0:
            raise CGBreakdownError(
                "non_spd",
                f"CG detected non-positive curvature {curvature:g} at iter {it}; "
                "the operator is not SPD",
                state=_snapshot(it - 1),
            )
        alpha = rs / curvature
        x_prev, r_prev = x, r
        x = x + alpha * p
        r = r - alpha * Ap
        rr = _dot(r, r)
        replaced = lowered is not None and np.isfinite(rr) and (
            np.sqrt(rr) <= max(_REPLACE_DROP * anchor, tol * bnorm)
        )
        if replaced:
            r = b - exact(x)
            rr = _dot(r, r)
        if not np.isfinite(rr):
            x, r = x_prev, r_prev  # discard the poisoned update
            raise CGBreakdownError(
                "rho_breakdown",
                f"CG residual norm went non-finite at iter {it}; "
                "the operator returned NaN/Inf",
                state=_snapshot(it - 1),
            )
        norm = float(np.sqrt(rr))
        # With replacement on, a residual this small was just replaced.
        done = norm <= tol * bnorm
        z, rz = r, rr
        if M is not None and not done:
            z = M.apply(r)
            rz = _dot(r, z)
            if not rz > 0.0:
                x, r = x_prev, r_prev
                raise _preconditioner_breakdown(rz, f"at iter {it}", _snapshot(it - 1))
        norms.append(norm)
        if done:
            return _result(True, it)
        # No contraction condemns the lowered operator and its directions.
        restart = replaced and norm >= anchor and iterate is not exact
        if restart:
            iterate, escalated = exact, True
        if replaced:
            anchor = norm
        p = z if restart else z + (rz / rs) * p
        rs = rz
        if (
            stagnation_window is not None
            and len(norms) > stagnation_window
            and norms[-1] >= norms[-1 - stagnation_window]
        ):
            raise CGBreakdownError(
                "stagnation",
                f"CG made no residual progress over {stagnation_window} "
                f"iterations (||r|| {norms[-1]:.3e} at iter {it})",
                state=_snapshot(it),
            )
        if (
            checkpoint is not None
            and checkpoint_every is not None
            and it % checkpoint_every == 0
        ):
            checkpoint(_snapshot(it))

    return _result(False, maxiter)


@dataclass
class BlockCGResult:
    """Outcome of a blocked multi-RHS CG solve: also the blocked applies
    of the operator as given and whether the solve ran preconditioned."""

    X: np.ndarray
    converged: np.ndarray  # (k,) bool, per column
    iterations: int
    residual_norms: List[np.ndarray] = field(default_factory=list)  # (k,) per iter
    exact_applies: int = 0
    preconditioned: bool = False

    @property
    def all_converged(self) -> bool:
        return bool(np.all(self.converged))


def _col_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-column inner products over all leading axes: (..., k) -> (k,)."""
    k = a.shape[-1]
    return np.einsum("ij,ij->j", a.reshape(-1, k), b.reshape(-1, k))


@dataclass
class BlockCGState:
    """Exact block-CG state at an iteration boundary (see :class:`CGState`;
    ``rs`` holds each column's ``<r, z>``)."""

    X: np.ndarray
    R: np.ndarray
    P: np.ndarray
    rs: np.ndarray  # (k,)
    bnorm: np.ndarray  # (k,)
    converged: np.ndarray  # (k,) bool
    norms: List[np.ndarray]  # (k,) per recorded iteration, incl. iter 0
    iteration: int
    exact_applies: int = 0
    preconditioned: bool = False

    def copy(self) -> "BlockCGState":
        """Deep copy — resuming never aliases the caller's snapshot."""
        return replace(
            self, X=self.X.copy(), R=self.R.copy(), P=self.P.copy(), rs=self.rs.copy(),
            bnorm=self.bnorm.copy(), converged=self.converged.copy(),
            norms=[n.copy() for n in self.norms],
        )

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Flatten to named arrays for a :class:`CheckpointStore`."""
        return {
            "X": self.X,
            "R": self.R,
            "P": self.P,
            "rs": self.rs,
            "bnorm": self.bnorm,
            "converged": self.converged,
            "norms": np.stack(self.norms, axis=0),
            "iteration": np.array(self.iteration, dtype=np.int64),
            "exact_applies": np.array(self.exact_applies, dtype=np.int64),
            "preconditioned": np.array(self.preconditioned),
        }

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray]) -> "BlockCGState":
        """Rebuild from :meth:`to_arrays` output (checkpoint load path).
        Raises :class:`~repro.util.checkpoint.CheckpointSchemaError` on a
        state without ``exact_applies`` or ``preconditioned``."""
        missing = [name for name in ("exact_applies", "preconditioned") if name not in arrays]
        if missing:
            raise CheckpointSchemaError.incomplete("BlockCGState", " and ".join(missing))
        norms = np.asarray(arrays["norms"], dtype=np.float64)
        iteration = int(np.asarray(arrays["iteration"]).reshape(-1)[0])
        return cls(
            X=np.asarray(arrays["X"], dtype=np.float64).copy(),
            R=np.asarray(arrays["R"], dtype=np.float64).copy(),
            P=np.asarray(arrays["P"], dtype=np.float64).copy(),
            rs=np.asarray(arrays["rs"], dtype=np.float64).copy(),
            bnorm=np.asarray(arrays["bnorm"], dtype=np.float64).copy(),
            converged=np.asarray(arrays["converged"], dtype=bool).copy(),
            norms=[norms[i].copy() for i in range(norms.shape[0])],
            iteration=iteration,
            exact_applies=int(np.asarray(arrays["exact_applies"])),
            preconditioned=bool(np.asarray(arrays["preconditioned"])),
        )


def _undo_update(X: np.ndarray, R: np.ndarray, P: np.ndarray, alpha, scratch) -> None:
    """Undo an in-place ``X += alpha P; R -= alpha A P`` so a snapshot
    holds the last healthy boundary: ``scratch`` still carries
    ``alpha A P`` (the R update), and P/alpha re-derive the X update."""
    R += scratch
    np.multiply(P, alpha, out=scratch)
    X -= scratch


def block_conjugate_gradient(
    operator: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    tol: float = 1e-8,
    maxiter: int = 500,
    resume: Optional[BlockCGState] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint: Optional[Callable[[BlockCGState], None]] = None,
    stagnation_window: Optional[int] = None,
) -> BlockCGResult:
    """Solve ``operator(X) = RHS`` column-wise for an SPD block operator,
    from ``X = 0``.

    ``rhs`` is ``(..., k)`` (typically ``(nt, n, k)``) and ``operator``
    maps blocks of that shape to blocks of the same shape — pass e.g.
    ``GaussNewtonHessian(...).apply_block`` so each iteration costs one
    blocked pipeline pass for all k systems.  Column ``j`` converges when
    ``||r_j|| <= tol * ||rhs_j||`` and is frozen from then on, so its
    iterate matches what :func:`conjugate_gradient` would return for the
    same column (up to rounding).  Breakdown in any active column —
    non-positive or non-finite curvature, a non-finite residual, or
    ``stagnation_window`` iterations with no progress in any active
    column — raises :class:`CGBreakdownError` with the last healthy
    :class:`BlockCGState`, as the vector solver does.

    ``resume=`` continues from a :class:`BlockCGState` captured by a
    ``checkpoint=`` callback (see ``checkpoint_every``).  The resumed
    solve is bitwise-identical to the uninterrupted one when the
    operator is deterministic — the initialization (including the
    ``R = B - A X`` residual) is *not* recomputed, the stored residual
    recurrence continues exactly.

    An ``operator`` with a ``preconditioner`` runs preconditioned block
    CG — still exact, M applied to each column alone (module docstring).
    """
    B = np.asarray(rhs, dtype=np.float64)
    if B.ndim < 2:
        raise ReproError(
            f"block CG needs a (..., k) multi-RHS array, got shape {B.shape}"
        )
    _check_options(checkpoint_every, stagnation_window)
    M = _preconditioner(_owner(operator), resume)

    def _result(iterations: int) -> BlockCGResult:
        return BlockCGResult(
            X=X, converged=converged, iterations=iterations, residual_norms=norms,
            exact_applies=n_exact, preconditioned=M is not None,
        )

    if resume is not None:
        if resume.X.shape != B.shape:
            raise ReproError(
                f"resume state shape {resume.X.shape} != rhs shape {B.shape}"
            )
        state = resume.copy()
        X, R, P = state.X, state.R, state.P
        rs, bnorm, converged = state.rs, state.bnorm, state.converged
        norms, n_exact = state.norms, state.exact_applies
        start = state.iteration
        if np.all(converged):
            return _result(start)
    else:
        X = np.zeros_like(B)
        R = B - operator(X)
        n_exact = 1
        bnorm = np.sqrt(_col_dots(B, B))
        # Zero RHS columns are solved by zeros immediately.
        zero_rhs = bnorm == 0.0
        R[..., zero_rhs] = 0.0
        rs = _col_dots(R, R)

        norms = [np.sqrt(rs)]
        converged = zero_rhs | (norms[0] <= tol * bnorm)
        if np.all(converged):
            return _result(0)
        if M is None:
            P = R.copy()
        else:
            P = M.apply_block(R)
            rs = _col_dots(R, P)
            if not np.all(rs[~converged] > 0.0):
                raise _preconditioner_breakdown(rs[~converged], "at the start", None)
        P[..., converged] = 0.0
        start = 0

    # One scratch block keeps the per-iteration linear algebra
    # allocation-free: for wide blocks the vector updates otherwise cost
    # a noticeable fraction of the shared operator action they amortize.
    scratch = np.empty_like(B)

    def _snapshot(iteration: int) -> BlockCGState:
        return BlockCGState(
            X=X.copy(), R=R.copy(), P=P.copy(), rs=rs.copy(),
            bnorm=bnorm.copy(), converged=converged.copy(),
            norms=[n.copy() for n in norms], iteration=iteration,
            exact_applies=n_exact, preconditioned=M is not None,
        )

    for it in range(start + 1, maxiter + 1):
        # Frozen columns keep a zero search direction, so the shared
        # operator action does no stale work on their behalf.
        active = ~converged
        AP = operator(P)
        n_exact += 1
        curvature = _col_dots(P, AP)
        if not np.all(np.isfinite(curvature[active])):
            raise CGBreakdownError(
                "rho_breakdown",
                f"block CG curvature went non-finite at iter {it}; "
                "the operator returned NaN/Inf",
                state=_snapshot(it - 1),
            )
        if np.any(curvature[active] <= 0.0):
            bad = float(np.min(curvature[active]))
            raise CGBreakdownError(
                "non_spd",
                f"block CG detected non-positive curvature {bad:g} at iter "
                f"{it}; the operator is not SPD",
                state=_snapshot(it - 1),
            )
        alpha = np.where(active, rs / np.where(active, curvature, 1.0), 0.0)
        np.multiply(P, alpha, out=scratch)
        X += scratch
        np.multiply(AP, alpha, out=scratch)
        R -= scratch
        rr = _col_dots(R, R)
        if not np.all(np.isfinite(rr[active])):
            _undo_update(X, R, P, alpha, scratch)  # discard the poisoned update
            raise CGBreakdownError(
                "rho_breakdown",
                f"block CG residual norm went non-finite at iter {it}; "
                "the operator returned NaN/Inf",
                state=_snapshot(it - 1),
            )
        norm = np.where(active, np.sqrt(rr), norms[-1])
        done = converged | (active & (norm <= tol * bnorm))
        Z, rz = R, rr
        if M is not None and not np.all(done):
            Z = M.apply_block(R)
            rz = _col_dots(R, Z)
            if not np.all(rz[~done] > 0.0):
                _undo_update(X, R, P, alpha, scratch)
                raise _preconditioner_breakdown(rz[~done], f"at iter {it}", _snapshot(it - 1))
        norms.append(norm)
        converged = done
        if np.all(converged):
            return _result(it)
        beta = np.where(
            ~converged, rz / np.where(rs > 0, rs, 1.0), 0.0
        )
        # P <- Z + beta*P for active columns, zero for frozen ones
        # (beta is already zero there; only the += Z needs undoing).
        np.multiply(P, beta, out=P)
        P += Z
        P[..., converged] = 0.0
        rs = rz
        if stagnation_window is not None and len(norms) > stagnation_window:
            still = ~converged
            if np.all(norms[-1][still] >= norms[-1 - stagnation_window][still]):
                raise CGBreakdownError(
                    "stagnation",
                    f"block CG made no residual progress in any active column "
                    f"over {stagnation_window} iterations (iter {it})",
                    state=_snapshot(it),
                )
        if (
            checkpoint is not None
            and checkpoint_every is not None
            and it % checkpoint_every == 0
        ):
            checkpoint(_snapshot(it))

    return _result(maxiter)
