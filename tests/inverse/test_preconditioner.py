"""The single-precision block-circulant preconditioner under both CG solvers.

``GaussNewtonHessian.preconditioner`` is ``sigma^2 P (C^H C + mu I)^-1
P^T`` on the 2 Nt circulant embedding, applied with complex64 GEMVs; CG
and block CG run preconditioned on any Hessian that has one.  Pinned
here, with no wall clock: M is SPD, symmetric to single precision and
the circulant inverse it claims to be at every noise level; both solvers
meet ``tol`` in double in under 0.6x the plain iterations; every operator
a gate turns away runs the plain loop bit for bit; a bad ``<r, M r>``
raises a typed breakdown; and states resume bitwise in the loop that
saved them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.grid import ProcessGrid
from repro.core.operator import (
    CallableOperator,
    ForwardOperator,
    GaussNewtonHessian,
    IdentityOperator,
)
from repro.core.parallel import ParallelFFTMatvec
from repro.inverse import GaussianPrior
from repro.inverse.cg import (
    BlockCGState,
    CGBreakdownError,
    CGState,
    block_conjugate_gradient,
    conjugate_gradient,
)
from repro.serve.cache import engine_footprint
from repro.util.checkpoint import CheckpointSchemaError
from repro.util.dtypes import Precision
from repro.util.validation import ReproError
from tests.inverse.test_residual_replacement import (
    MAXITER,
    RIDGE,
    TOL,
    CountingEngine,
    _assert_same_solve,
    _blocks,
    _system,
    _true_residual,
)

SHAPES = [(32, 24, 96), (64, 24, 96)]


@pytest.fixture(scope="module")
def system():
    """The (32, 24, 96) solve: a 1.2 MB spectrum, M admitted."""
    return _system((32, 24, 96))


def _block_rhs(eng, shape, k=3, seed=7):
    data = np.random.default_rng(seed).standard_normal((shape[0], shape[1], k))
    return eng.rmatmat(data)


def _hessian(eng, noise_std=1.0, reg=None, config="ddddd"):
    forward = ForwardOperator(eng, config)
    if reg is None:
        reg = RIDGE * IdentityOperator(forward.in_shape)
    return GaussNewtonHessian(forward, noise_std, reg)


def _dense_inverse(eng, v, noise_std):
    """``sigma^2 P (C^H C + mu I)^-1 P^T v`` in double, one solve per frequency."""
    nt, mu = eng.nt, eng.gram_factor().mu
    C = eng.spectrum(Precision.DOUBLE) * eng.n_pad  # unnormalized spectrum
    vhat = np.fft.rfft(np.concatenate([v, np.zeros_like(v)]), axis=0)
    gram = np.conj(C.transpose(0, 2, 1)) @ C + mu * np.eye(eng.nm)
    zhat = np.linalg.solve(gram, vhat[:, :, None])[:, :, 0]
    return noise_std**2 * np.fft.irfft(zhat, n=2 * nt, axis=0)[:nt]


class TestTheOperator:
    def test_spd_and_symmetric_to_single_precision(self, system):
        eng, hess, _ = system
        M = hess.preconditioner
        rng = np.random.default_rng(0)
        for _ in range(8):
            u, v = rng.standard_normal((2, eng.nt, eng.nm))
            uMv, vMu = np.vdot(u, M.apply(v)), np.vdot(v, M.apply(u))
            uMu, vMv = np.vdot(u, M.apply(u)), np.vdot(v, M.apply(v))
            assert uMu > 0 and vMv > 0
            assert abs(uMv - vMu) <= 1e-5 * np.sqrt(uMu * vMv)

    @pytest.mark.parametrize("noise_std", [0.5, 1.0, 3.0])
    def test_is_the_circulant_inverse_scaled_by_sigma_squared(self, noise_std):
        eng, _, rhs = _system((32, 24, 96))
        hess = _hessian(eng, noise_std)
        got, want = hess.preconditioner.apply(rhs), _dense_inverse(eng, rhs, noise_std)
        assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)
        res = conjugate_gradient(hess.apply, rhs, tol=TOL, maxiter=MAXITER)
        plain = conjugate_gradient(lambda v: hess.apply(v), rhs, tol=TOL, maxiter=MAXITER)
        assert res.converged and res.preconditioned
        assert res.iterations <= 0.6 * plain.iterations
        assert _true_residual(hess, res.x, rhs) <= TOL

    def test_columns_are_preconditioned_independently(self, system):
        eng, hess, _ = system
        V = _block_rhs(eng, (eng.nt, eng.nd))
        Z = hess.preconditioner.apply_block(V)
        for j in range(V.shape[2]):
            col = hess.preconditioner.apply(V[:, :, j])
            assert np.linalg.norm(Z[:, :, j] - col) <= 1e-6 * np.linalg.norm(col)

    def test_factor_is_built_lazily_once_per_engine(self):
        eng = CountingEngine(_blocks((32, 24, 96)))
        first = _hessian(eng)
        assert eng._gram is None  # neither the engine nor the Hessian built it
        B = first.preconditioner.B
        assert B.dtype == np.complex64 and B.shape == (eng.n_freq, eng.nd, eng.nm)
        assert _hessian(eng, 2.0).preconditioner.B is B  # sigma-independent, kept
        assert first.preconditioner is first.preconditioner

    def test_the_engine_cache_charges_the_factor(self):
        eng = CountingEngine(_blocks((32, 24, 96)))
        before = engine_footprint(eng)
        B = eng.gram_factor().B
        assert engine_footprint(eng) == before + B.nbytes


class TestSolves:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_vector_and_block_under_six_tenths_of_plain(self, shape):
        eng, hess, rhs = _system(shape)
        plain = conjugate_gradient(lambda v: hess.apply(v), rhs, tol=TOL, maxiter=MAXITER)
        res = conjugate_gradient(hess.apply, rhs, tol=TOL, maxiter=MAXITER)
        assert res.converged and res.preconditioned
        assert res.iterations <= 0.6 * plain.iterations
        assert _true_residual(hess, res.x, rhs) <= TOL

        R = _block_rhs(eng, shape)
        plain_b = block_conjugate_gradient(
            lambda V: hess.apply_block(V), R, tol=TOL, maxiter=MAXITER
        )
        eng.calls.clear()
        blk = block_conjugate_gradient(hess.apply_block, R, tol=TOL, maxiter=MAXITER)
        assert blk.all_converged and blk.preconditioned and not plain_b.preconditioned
        assert blk.iterations <= 0.6 * plain_b.iterations
        assert blk.exact_applies == blk.iterations + 1 == eng.calls[f"k={R.shape[2]} ddddd"]
        assert plain_b.exact_applies == plain_b.iterations + 1
        for j in range(R.shape[2]):
            assert _true_residual(hess, blk.X[:, :, j], R[:, :, j]) <= TOL


class _Unpreconditioned(GaussNewtonHessian):
    """The same Hessian with no M: the loop that ran before M existed."""

    preconditioner = None


def _prior_reg(shape):
    prior = GaussianPrior(shape[2], shape[0])
    return CallableOperator(
        (shape[0], shape[2]), (shape[0], shape[2]), prior.apply_inv_block,
    )


def _turned_away(case):
    """A system whose Hessian (or callable) gets no preconditioner."""
    if case == "spectrum-under-1MiB":
        eng, hess, rhs = _system((16, 6, 12))
    elif case == "operator-at-dssdd":
        eng, hess, rhs = _system((32, 24, 96), "dssdd")
    elif case == "grid-engine":
        shape = (32, 24, 96)
        eng = ParallelFFTMatvec(_blocks(shape), ProcessGrid(1, 2))
        hess = _hessian(eng)
        rhs = eng.rmatvec(np.random.default_rng(1).standard_normal(shape[:2]))
    else:
        eng, base, rhs = _system((32, 24, 96))
        reg = {
            "prior-precision-reg": _prior_reg((32, 24, 96)),
            "ridge-above-mu": 2.0 * eng.gram_factor().mu * IdentityOperator(base.in_shape),
            "plain-callable": base.reg,
        }[case]
        hess = _hessian(eng, reg=reg)
    return eng, hess, rhs


CASES = [
    "spectrum-under-1MiB", "operator-at-dssdd", "prior-precision-reg",
    "ridge-above-mu", "plain-callable", "grid-engine",
]


class TestGatesKeepThePlainLoop:
    @pytest.mark.parametrize("case", CASES)
    def test_bitwise_the_lambda_wrapped_solve(self, case):
        eng, hess, rhs = _turned_away(case)
        wrap = case == "plain-callable"
        if wrap:
            op = today = lambda v: hess.apply(v)  # noqa: E731
        else:
            assert hess.preconditioner is None
            # The loop as it ran before M: lowered where the gates allow.
            op, today = hess.apply, _Unpreconditioned(hess.forward, hess.noise_std, hess.reg).apply
        got = conjugate_gradient(op, rhs, tol=TOL, maxiter=30)
        assert not got.preconditioned
        _assert_same_solve(got, conjugate_gradient(today, rhs, tol=TOL, maxiter=30))
        # Block: always exact, so always the lambda-wrapped loop.
        R = np.stack([rhs, 0.5 * rhs], -1)
        block_op = (lambda V: hess.apply_block(V)) if wrap else hess.apply_block
        blk = block_conjugate_gradient(block_op, R, tol=TOL, maxiter=30)
        want = block_conjugate_gradient(lambda V: hess.apply_block(V), R, tol=TOL, maxiter=30)
        assert not blk.preconditioned and blk.iterations == want.iterations
        assert np.array_equal(blk.X, want.X)
        assert all(np.array_equal(a, b) for a, b in zip(blk.residual_norms, want.residual_norms))

    def test_an_ill_conditioned_spectrum_gets_no_single_precision_m(self):
        blocks = _blocks((32, 24, 96))
        blocks[:, 0, :] *= 1e-5  # kappa(F_hat) ~ 2e5: cond(M) = 1 + 4 kappa^2
        eng = CountingEngine(blocks)
        assert eng.gram_factor().kappa > 1e5
        assert RIDGE <= eng.gram_factor().mu  # the ridge gate alone would admit it
        assert _hessian(eng).preconditioner is None

    def test_lowering_still_applies_where_m_is_turned_away(self):
        eng, hess, rhs = _turned_away("prior-precision-reg")
        res = conjugate_gradient(hess.apply, rhs, tol=TOL, maxiter=MAXITER)
        assert res.iteration_config == "ddsdd" and not res.preconditioned
        assert res.converged and _true_residual(hess, res.x, rhs) <= TOL


class _WithM(GaussNewtonHessian):
    """A Hessian whose preconditioner is whatever the test hands it."""

    def __init__(self, hess: GaussNewtonHessian, fn) -> None:
        super().__init__(hess.forward, hess.noise_std, hess.reg)
        self.__dict__["preconditioner"] = CallableOperator(
            hess.in_shape, hess.in_shape, fn
        )


def _poisoned_m(hess, healthy):
    calls = {"n": 0}

    def fn(V):
        calls["n"] += 1
        out = hess.preconditioner.apply_block(V)
        return np.full_like(out, np.nan) if calls["n"] > healthy else out

    return fn


class TestBreakdown:
    def test_nan_from_m_is_rho_breakdown_with_a_healthy_state(self, system):
        _, hess, rhs = system
        with pytest.raises(CGBreakdownError) as ei:
            conjugate_gradient(_WithM(hess, _poisoned_m(hess, 4)).apply, rhs, tol=TOL)
        assert ei.value.kind == "rho_breakdown" and "preconditioner" in str(ei.value)
        state = ei.value.state
        assert state.iteration == 3 and state.preconditioned
        assert np.all(np.isfinite(state.x)) and np.all(np.isfinite(state.r))

    def test_block_nan_from_m_is_rho_breakdown(self, system):
        eng, hess, _ = system
        R = _block_rhs(eng, (eng.nt, eng.nd))
        with pytest.raises(CGBreakdownError) as ei:
            block_conjugate_gradient(_WithM(hess, _poisoned_m(hess, 4)).apply_block, R, tol=TOL)
        assert ei.value.kind == "rho_breakdown"
        assert isinstance(ei.value.state, BlockCGState) and ei.value.state.iteration == 3

    @pytest.mark.parametrize("block", [False, True], ids=["vector", "block"])
    def test_non_positive_r_dot_z_is_a_typed_breakdown(self, system, block):
        eng, hess, rhs = system
        negated = _WithM(hess, lambda v: -v)
        with pytest.raises(CGBreakdownError) as ei:
            if block:
                block_conjugate_gradient(negated.apply_block, _block_rhs(eng, (eng.nt, eng.nd)))
            else:
                conjugate_gradient(negated.apply, rhs)
        assert ei.value.kind == "non_spd" and "preconditioner is not SPD" in str(ei.value)


class TestResume:
    def test_block_bitwise_from_every_checkpoint(self, system):
        eng, hess, _ = system
        R = _block_rhs(eng, (eng.nt, eng.nd))
        states = []
        full = block_conjugate_gradient(
            hess.apply_block, R, tol=TOL, maxiter=MAXITER, checkpoint_every=1,
            checkpoint=states.append,
        )
        assert full.preconditioned and len(states) == full.iterations - 1
        for state in states[::4]:
            restored = BlockCGState.from_arrays(state.to_arrays())
            assert restored.preconditioned
            got = block_conjugate_gradient(hess.apply_block, R, tol=TOL, maxiter=MAXITER,
                                           resume=restored)
            assert np.array_equal(got.X, full.X) and got.iterations == full.iterations
            assert got.exact_applies == full.exact_applies and got.preconditioned

    @pytest.mark.parametrize("n_scalars", [5, 2], ids=["before-M", "before-replacement"])
    def test_states_without_all_six_scalars_are_refused(self, system, n_scalars):
        # No current writer produces the older layouts; a state missing a
        # field is refused, not resumed with guessed values.
        _, hess, rhs = system
        states = []
        conjugate_gradient(hess.apply, rhs, tol=TOL, maxiter=MAXITER, checkpoint_every=1,
                           checkpoint=states.append)
        arrays = states[2].to_arrays()
        arrays["scalars"] = arrays["scalars"][:n_scalars]
        with pytest.raises(CheckpointSchemaError, match="CGState"):
            CGState.from_arrays(arrays)

    @pytest.mark.parametrize(
        "dropped", [("exact_applies",), ("preconditioned",), ("exact_applies", "preconditioned")]
    )
    def test_block_states_without_their_apply_count_are_refused(self, system, dropped):
        eng, hess, _ = system
        R = _block_rhs(eng, (eng.nt, eng.nd))
        states = []
        block_conjugate_gradient(lambda V: hess.apply_block(V), R, tol=TOL, maxiter=MAXITER,
                                 checkpoint_every=10, checkpoint=states.append)
        arrays = states[-1].to_arrays()
        for name in dropped:
            del arrays[name]
        with pytest.raises(CheckpointSchemaError, match="BlockCGState"):
            BlockCGState.from_arrays(arrays)
        whole = BlockCGState.from_arrays(states[-1].to_arrays())
        assert whole.exact_applies == states[-1].exact_applies

    def test_a_preconditioned_state_needs_its_operator(self, system):
        _, hess, rhs = system
        states = []
        conjugate_gradient(hess.apply, rhs, tol=TOL, maxiter=MAXITER, checkpoint_every=5,
                           checkpoint=states.append)
        with pytest.raises(ReproError, match="preconditioned"):
            conjugate_gradient(lambda v: hess.apply(v), rhs, tol=TOL, resume=states[0])
