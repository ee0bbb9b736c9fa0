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
98-104 -> 43-45 iterations and block CG (k = 8) 62 -> 30; one
k = 1 M apply costs ~130 us against ~270 us for a ``ddsdd`` Hessian
apply, and the SVD pass 26 ms once per engine.  Its single-precision
FFT pair makes M's steps ~190 us at k = 1 and ~1.3 ms at k = 8 against
~225 us and ~1.6 ms with a double pair (one process, same host), at the
same iteration counts.  Convergence is still tested on
``||r||``, so ``tol`` keeps its meaning.  A replaced residual gets its
``z = M r`` like any other, and escalation, breakdown kinds and restarts
(``p = z``) keep their meaning.

:func:`block_conjugate_gradient` solves ``k`` right-hand sides at once,
and the columns are *coupled*: every column searches the whole block
Krylov space (O'Leary 1980), not only its own.  Each iteration applies
the operator once to the block of search directions ``P`` (e.g. a
Gauss-Newton Hessian built on ``FFTMatvec.matmat``, so the k columns
share each pipeline pass), then solves the small system ``C = P^T A P``
for every column's step.  New directions come from ``M R`` made
A-conjugate to ``P`` and then orthonormalised with rank revealing
(Ji & Li 2017, breakdown-free block CG): a direction the block no longer
spans is dropped instead of making ``C`` singular, so duplicate or
dependent right-hand sides, and columns that converge together, are
safe.  The rank test normalises the columns first, so a right-hand side
1e-12 times its neighbours is not mistaken for a dependent one.
Operator calls keep width ``k``: ``P``'s columns past the rank are zero.
Columns freeze once converged, and only ``B - A X`` declares a block
solved (:func:`block_conjugate_gradient`).  At (64, 24, 96), ridge
1e-8, tol 1e-8, k = 8 (numpy, one BLAS thread, 2-vCPU Xeon) the
preconditioned block takes 30 iterations where each column alone takes
45, and the plain block 62 where each column alone takes 102-104.  A
column's iterate depends on the other right-hand sides of its block.

Both solvers are **resumable**: pass ``checkpoint_every=`` and a
``checkpoint=`` callback to receive a deep-copied :class:`CGState` /
:class:`BlockCGState` at iteration boundaries, and pass one back via
``resume=`` to continue a killed solve.  Each recurrence is a pure
function of its state (X, R, P, and ``rs`` or the direction rank), so a
resumed solve replays the exact floating-point sequence of the
uninterrupted one: with a deterministic
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


# A normalised direction whose square outside the span of those kept
# before it is under this is dropped (duplicate, dependent or converging
# together), so C = P^T A P stays SPD: Ji & Li's breakdown-free block CG.
_RANK_DROP = 1e-10
# Restarts from B - A X (a solve has made n_exact - it checks) before the
# columns that miss tol on it return unconverged: a gap one restart did
# not close is the operator's (coarser than tol, or not linear).
_RESTARTS = 1


def _inverse_factor(G: np.ndarray, drop: Optional[float] = None) -> Optional[np.ndarray]:
    """``Y`` (k, r) with ``Y^T G Y = I``: the Cholesky ``G = L L^T`` of a
    small symmetric ``G``, run on ``[[G, I], [I, 0]]`` so that ``L^-T``
    lands in the lower rows.  With ``drop``, a pivot ``<= drop`` skips its
    column (its row of ``Y`` is zero); without, ``None`` unless ``G`` is
    positive definite.  Plain numpy: LAPACK's ``eigh`` / ``cholesky`` /
    ``inv`` page in ~0.5 MB of code that nothing else in a solve runs."""
    k = len(G)
    S, Y = np.zeros((2 * k, 2 * k)), []
    S[:k, :k], S[:k, k:], S[k:, :k] = G, np.eye(k), np.eye(k)
    for j in range(k):
        if not S[j, j] > (drop or 0.0):
            if drop is None:
                return None
            continue
        col = S[:, j] / np.sqrt(S[j, j])
        S -= np.multiply.outer(col, col)
        Y.append(col[k:])
    return np.array(Y).T.reshape(k, len(Y))


def _orth(W: np.ndarray, P: np.ndarray) -> int:
    """Write an orthonormal basis of ``W``'s column span into ``P``'s
    leading columns (both ``(n, k)``), zero the rest, return its rank.

    ``W``'s columns are normalised before the rank test — folded into
    the Gram as ``D^-1 W^T W D^-1`` and into ``P = W D^-1 Y`` — so a
    column 1e-12 times its neighbours keeps its direction."""
    gram = W.T @ W
    norm = np.sqrt(np.diag(gram))
    inv = np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > 0.0)
    Y = _inverse_factor(gram * np.multiply.outer(inv, inv), drop=_RANK_DROP)
    T = np.zeros_like(gram)
    T[:, : Y.shape[1]] = inv[:, None] * Y
    np.matmul(W, T, out=P)
    return Y.shape[1]


@dataclass
class BlockCGState:
    """Exact block-CG state at an iteration boundary (see :class:`CGState`):
    the leading ``rank`` columns of ``P`` are the orthonormal search
    directions, the others zero."""

    X: np.ndarray
    R: np.ndarray
    P: np.ndarray
    rank: int
    bnorm: np.ndarray  # (k,)
    converged: np.ndarray  # (k,) bool
    norms: List[np.ndarray]  # (k,) per recorded iteration, incl. iter 0
    iteration: int
    exact_applies: int = 0
    preconditioned: bool = False

    def copy(self) -> "BlockCGState":
        """Deep copy — resuming never aliases the caller's snapshot."""
        return replace(
            self, X=self.X.copy(), R=self.R.copy(), P=self.P.copy(),
            bnorm=self.bnorm.copy(), converged=self.converged.copy(),
            norms=[n.copy() for n in self.norms],
        )

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Flatten to named arrays for a :class:`CheckpointStore`."""
        return {
            "X": self.X,
            "R": self.R,
            "P": self.P,
            "rank": np.array(self.rank, dtype=np.int64),
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
        state without ``rank`` (as the per-column loop saved them),
        ``exact_applies`` or ``preconditioned``."""
        missing = [n for n in ("rank", "exact_applies", "preconditioned") if n not in arrays]
        if missing:
            raise CheckpointSchemaError.incomplete("BlockCGState", " and ".join(missing))
        norms = np.asarray(arrays["norms"], dtype=np.float64)
        return cls(
            X=np.asarray(arrays["X"], dtype=np.float64).copy(),
            R=np.asarray(arrays["R"], dtype=np.float64).copy(),
            P=np.asarray(arrays["P"], dtype=np.float64).copy(),
            rank=int(np.asarray(arrays["rank"])),
            bnorm=np.asarray(arrays["bnorm"], dtype=np.float64).copy(),
            converged=np.asarray(arrays["converged"], dtype=bool).copy(),
            norms=[norms[i].copy() for i in range(norms.shape[0])],
            iteration=int(np.asarray(arrays["iteration"]).reshape(-1)[0]),
            exact_applies=int(np.asarray(arrays["exact_applies"])),
            preconditioned=bool(np.asarray(arrays["preconditioned"])),
        )


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
    """Solve ``operator(X) = RHS`` for an SPD block operator, from ``X = 0``.

    ``rhs`` is ``(..., k)`` (typically ``(nt, n, k)``) and ``operator``
    maps blocks of that shape to blocks of the same shape — pass e.g.
    ``GaussNewtonHessian(...).apply_block`` so each iteration costs one
    blocked pipeline pass for all k systems.  The columns share one
    search space (module docstring).  Column ``j`` meets the recurrence's
    ``||r_j|| <= tol * ||rhs_j||`` and is frozen: its residual is zeroed,
    so it leaves the search space and its iterate stops.  Once all are,
    one apply checks ``B - A X``: columns that miss ``tol`` on it restart
    the directions from it, once (``_RESTARTS``), then return unconverged.
    A Cholesky of ``C = P^T A P`` that fails (``non_spd``: the operator is
    not SPD), a non-finite ``B``, ``C`` or residual (``rho_breakdown``),
    or ``stagnation_window`` iterations with no progress in any active
    column raise :class:`CGBreakdownError` with the last healthy
    :class:`BlockCGState`, as the vector solver does.

    ``resume=`` continues from a :class:`BlockCGState` captured by a
    ``checkpoint=`` callback (see ``checkpoint_every``).  The resumed
    solve is bitwise-identical to the uninterrupted one when the
    operator is deterministic: the stored recurrence continues exactly.

    An ``operator`` with a ``preconditioner`` runs preconditioned block
    CG, M applied to each column alone (module docstring).
    """
    B = np.asarray(rhs, dtype=np.float64)
    if B.ndim < 2:
        raise ReproError(f"block CG needs a (..., k) multi-RHS array, got shape {B.shape}")
    _check_options(checkpoint_every, stagnation_window)
    M = _preconditioner(_owner(operator), resume)
    k = B.shape[-1]

    def flat(a: np.ndarray) -> np.ndarray:
        return a.reshape(-1, k)

    def _result(iterations: int) -> BlockCGResult:
        return BlockCGResult(
            X=X, converged=converged, iterations=iterations, residual_norms=norms,
            exact_applies=n_exact, preconditioned=M is not None,
        )

    if resume is not None:
        if resume.X.shape != B.shape:
            raise ReproError(f"resume state shape {resume.X.shape} != rhs shape {B.shape}")
        state = resume.copy()
        X, R, P, rank = state.X, state.R, state.P, state.rank
        bnorm, converged = state.bnorm, state.converged
        norms, n_exact, start = state.norms, state.exact_applies, state.iteration
        if np.all(converged):
            return _result(start)
    else:
        # From X = 0 the residual is B exactly: no apply spent on it.
        X, R, P = np.zeros(B.shape), B.copy(), np.empty(B.shape)
        bnorm = np.sqrt(_col_dots(B, B))
        if not np.all(np.isfinite(bnorm)):
            raise CGBreakdownError("rho_breakdown", "block CG right-hand side holds NaN/Inf")
        norms, n_exact, start = [bnorm.copy()], 0, 0
        converged = bnorm <= tol * bnorm  # zero RHS columns: solved by zeros
        if np.all(converged):
            return _result(0)
        R[..., converged] = 0.0
        Z = R if M is None else M.apply_block(R)
        if M is not None:
            rz = _col_dots(R, Z)
            if not np.all(rz[~converged] > 0.0):
                raise _preconditioner_breakdown(rz[~converged], "at the start", None)
        rank = _orth(flat(Z), flat(P))

    # The next residual, then scratch: the (n, k) buffer beside X, R and P.
    R2 = np.empty(B.shape)

    def _snapshot(iteration: int) -> BlockCGState:
        return BlockCGState(
            X=X.copy(), R=R.copy(), P=P.copy(), rank=rank,
            bnorm=bnorm.copy(), converged=converged.copy(),
            norms=[n.copy() for n in norms], iteration=iteration,
            exact_applies=n_exact, preconditioned=M is not None,
        )

    def _breakdown(kind: str, what: str, it: int) -> CGBreakdownError:
        cause = "is not SPD" if kind == "non_spd" else "returned NaN/Inf"
        return CGBreakdownError(
            kind, f"block CG {what} at iter {it}; the operator {cause}", state=_snapshot(it - 1)
        )

    def _measure(Rn: np.ndarray, frozen: np.ndarray, it: int):
        rr = _col_dots(Rn, Rn)
        if not np.all(np.isfinite(rr[~frozen])):
            raise _breakdown("rho_breakdown", "residual norm went non-finite", it)
        norm = np.where(frozen, norms[-1], np.sqrt(rr))
        return norm, frozen | (norm <= tol * bnorm)

    for it in range(start + 1, maxiter + 1):
        Q = operator(P)  # P's columns past the rank are zero: width stays k
        n_exact += 1
        Ps, Qs = flat(P)[:, :rank], flat(Q)[:, :rank]
        with np.errstate(invalid="ignore", over="ignore"):  # non-finite is typed below
            C = Ps.T @ Qs
            C = 0.5 * (C + C.T)
        if not np.all(np.isfinite(C)):
            raise _breakdown("rho_breakdown", "P^T A P went non-finite", it)
        Y = _inverse_factor(C)
        if Y is None:
            raise _breakdown("non_spd", "P^T A P has no Cholesky factor", it)
        C_inv = Y @ Y.T
        alpha = C_inv @ (Ps.T @ flat(R))
        np.matmul(Qs, alpha, out=flat(R2))
        np.subtract(R, R2, out=R2)
        norm, done = _measure(R2, converged, it)
        checked = final = bool(np.all(done))
        Rn = R2
        if checked:  # the recurrence says solved: only B - A X is believed
            Q = Qs = None  # the check's apply holds no more buffers than A P
            np.matmul(Ps, alpha, out=flat(R2))
            R2 += X  # the new X, committed below
            Rn = B - operator(R2)
            n_exact += 1
            norm, done = _measure(Rn, np.zeros(k, dtype=bool), it)
            final = bool(np.all(done)) or n_exact - it > _RESTARTS
        Rn[..., done] = 0.0  # frozen: alpha leaves the column's X alone
        Z = Rn
        if M is not None and not final:
            Z = M.apply_block(Rn)
            rz = _col_dots(Rn, Z)
            if not np.all(rz[~done] > 0.0):
                raise _preconditioner_breakdown(rz[~done], f"at iter {it}", _snapshot(it - 1))
        if checked:
            X, R2, R = R2, X, Rn
        else:
            np.matmul(Ps, alpha, out=flat(R))  # the old residual's buffer is free
            X += R
            R, R2 = R2, R
        norms.append(norm)
        converged = done
        if final:
            return _result(it)
        if not checked:  # else the recurrence drifted: restart from B - A X
            beta = C_inv @ (Qs.T @ flat(Z))
            np.matmul(Ps, beta, out=flat(R2))
            Z = np.subtract(Z, R2, out=R2)
        rank = _orth(flat(Z), flat(P))
        if stagnation_window is not None and len(norms) > stagnation_window:
            still = ~converged
            if np.all(norms[-1][still] >= norms[-1 - stagnation_window][still]):
                raise CGBreakdownError(
                    "stagnation",
                    f"block CG made no residual progress in any active column "
                    f"over {stagnation_window} iterations (iter {it})",
                    state=_snapshot(it),
                )
        if checkpoint is not None and checkpoint_every is not None and it % checkpoint_every == 0:
            checkpoint(_snapshot(it))

    return _result(maxiter)
