"""CG with residual replacement: a double solve iterating on ``ddsdd``.

``conjugate_gradient`` lowers an all-double engine-backed operator to a
single-precision Phase 3 when the spectrum is worth halving and the
error budget allows, and converges only on a residual recomputed in
double.  What is pinned here, by counting engine applies per precision
config (no wall clock): the lowered (and preconditioned) solve meets
``tol`` in double in under 0.6x the plain solve's iterations and a
handful of exact applies; every operator the gates turn away runs the
plain loop bit for bit; the loop escalates to the exact operator when
the lowered one misbehaves; ``resume=`` stays bitwise; and kappa and the
preconditioner come from one SVD pass per engine.
"""

from __future__ import annotations

import asyncio
from collections import Counter

import numpy as np
import pytest

from repro.core.matvec import FFTMatvec
from repro.core.operator import (
    CallableOperator,
    ForwardOperator,
    GaussNewtonHessian,
    IdentityOperator,
)
from repro.core.precision import PrecisionConfig
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.inverse.cg import (
    CGBreakdownError,
    CGState,
    block_conjugate_gradient,
    conjugate_gradient,
)
from repro.serve import EngineCache, SolverService
from repro.util.checkpoint import CheckpointSchemaError

TOL, MAXITER = 1e-8, 200  # the serving layer's SolveOptions defaults
RIDGE = 1e-8


class CountingEngine(FFTMatvec):
    """An engine that counts its forward applies per precision config:
    one Gauss-Newton Hessian apply is one ``matvec`` and one ``rmatvec``
    (a blocked one, one ``matmat``, counted under ``"k=.. config"``)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.calls: Counter = Counter()

    def matvec(self, m, config="ddddd", out=None):
        self.calls[str(PrecisionConfig.parse(config))] += 1
        return super().matvec(m, config=config, out=out)

    def matmat(self, M, config="ddddd", out=None, deterministic=False):
        self.calls[f"k={np.shape(M)[-1]} {PrecisionConfig.parse(config)}"] += 1
        return super().matmat(M, config=config, out=out, deterministic=deterministic)


def _blocks(shape, seed=0):
    nt = shape[0]
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * np.exp(-0.05 * np.arange(nt))[:, None, None]


def _system(shape, config="ddddd", blocks=None, seed=0):
    """Engine, ridge-regularized Hessian (the ``solve_small`` operator) and
    a right-hand side ``F* d``."""
    eng = CountingEngine(_blocks(shape, seed) if blocks is None else blocks)
    forward = ForwardOperator(eng, config)
    hess = GaussNewtonHessian(forward, 1.0, RIDGE * IdentityOperator(forward.in_shape))
    rhs = eng.rmatvec(np.random.default_rng(seed + 1).standard_normal((shape[0], shape[1])))
    eng.calls.clear()
    return eng, hess, rhs


def _true_residual(hess, x, rhs) -> float:
    return float(np.linalg.norm(hess.apply(x) - rhs) / np.linalg.norm(rhs))


def _assert_same_solve(a, b) -> None:
    assert np.array_equal(a.x, b.x)
    assert a.iterations == b.iterations
    assert a.residual_norms == b.residual_norms
    assert a.converged == b.converged


@pytest.fixture(scope="module")
def small_apply():
    """The (32, 24, 96) system: a 1.2 MB double spectrum, just past the gate."""
    return _system((32, 24, 96))


class TestLoweredSolve:
    @pytest.mark.parametrize("shape", [(32, 24, 96), (64, 24, 96)])
    def test_meets_tol_in_double_in_fewer_iterations_than_plain(self, shape):
        eng, hess, rhs = _system(shape)
        plain = conjugate_gradient(lambda v: hess.apply(v), rhs, tol=TOL, maxiter=MAXITER)
        assert plain.converged and eng.calls == {"ddddd": plain.iterations + 1}
        eng.calls.clear()
        res = conjugate_gradient(hess.apply, rhs, tol=TOL, maxiter=MAXITER)
        calls = dict(eng.calls)
        assert res.converged and not res.escalated and res.preconditioned
        assert res.iteration_config == "ddsdd"
        assert _true_residual(hess, res.x, rhs) <= TOL
        assert res.final_residual <= TOL * np.linalg.norm(rhs)
        # Preconditioned: 94 -> 44 at (32, 24, 96), 102 -> 45 at (64, 24, 96).
        assert calls["ddsdd"] == res.iterations <= 0.6 * plain.iterations
        assert calls["ddddd"] == res.exact_applies <= 6

    def test_the_operator_itself_is_lowered_like_its_apply(self, small_apply):
        _, hess, rhs = small_apply
        _assert_same_solve(
            conjugate_gradient(hess, rhs, tol=TOL, maxiter=MAXITER),
            conjugate_gradient(hess.apply, rhs, tol=TOL, maxiter=MAXITER),
        )

    def test_plain_loop_records_its_applies(self, small_apply):
        eng, hess, rhs = small_apply
        eng.calls.clear()
        res = conjugate_gradient(lambda v: hess.apply(v), rhs, tol=TOL, maxiter=MAXITER)
        assert res.iteration_config is None and not res.escalated
        assert res.exact_applies == res.iterations + 1 == eng.calls["ddddd"]


def _ill_conditioned(shape):
    """Blocks whose first sensor row is damped 1e5x at every lag:
    kappa(F_hat) ~ 1e5, so the ``ddsdd`` bound is far above the budget."""
    blocks = _blocks(shape)
    blocks[:, 0, :] *= 1e-5
    return blocks


class TestGatesKeepThePlainLoop:
    @pytest.mark.parametrize(
        "shape,config,blocks,wrap",
        [
            pytest.param((16, 6, 12), "ddddd", None, False, id="spectrum-under-1MiB"),
            pytest.param((64, 24, 96), "dssdd", None, False, id="operator-at-dssdd"),
            pytest.param((32, 24, 96), "ddddd", None, True, id="plain-callable"),
            pytest.param((32, 24, 96), "ddddd", _ill_conditioned((32, 24, 96)), False,
                         id="error-bound-fails"),
        ],
    )
    def test_bitwise_the_lambda_wrapped_solve(self, shape, config, blocks, wrap):
        eng, hess, rhs = _system(shape, config, blocks)
        operator = (lambda v: hess.apply(v)) if wrap else hess.apply
        got = conjugate_gradient(operator, rhs, tol=TOL, maxiter=40)
        want = conjugate_gradient(lambda v: hess.apply(v), rhs, tol=TOL, maxiter=40)
        _assert_same_solve(got, want)
        assert set(eng.calls) == {config}  # nothing ran lowered
        assert got.exact_applies == got.iterations + 1 and not got.escalated
        assert got.iteration_config == (None if wrap else config)

    def test_error_bound_gate_reads_kappa(self):
        eng, _, _ = _system((32, 24, 96), blocks=_ill_conditioned((32, 24, 96)))
        assert eng.condition_number_hat() > 1e4

    def test_block_solver_stays_at_ddddd(self, small_apply):
        eng, hess, rhs = small_apply
        eng.calls.clear()
        res = block_conjugate_gradient(
            hess.apply_block, np.stack([rhs, rhs], -1), tol=TOL, maxiter=5
        )
        assert set(eng.calls) == {"k=2 ddddd"}
        assert res.preconditioned and res.exact_applies == eng.calls["k=2 ddddd"] == 5


class _Injected(GaussNewtonHessian):
    """A Hessian whose lowered form is whatever the test hands it."""

    def __init__(self, hess: GaussNewtonHessian, lowered) -> None:
        super().__init__(hess.forward, hess.noise_std, hess.reg)
        self.lowered = lowered

    def at(self, config):
        return self.lowered(self)


class TestEscalation:
    def test_non_contracting_lowered_operator(self, small_apply):
        _, hess, rhs = small_apply
        # CG on H/4 drives the recursive residual down while x -> 4 x*:
        # the replaced residual is ~3 ||b||, above its anchor ||b||.
        injected = _Injected(hess, lambda h: 0.25 * GaussNewtonHessian(h.forward, h.noise_std, h.reg))
        res = conjugate_gradient(injected.apply, rhs, tol=TOL, maxiter=MAXITER)
        assert res.converged and res.escalated
        assert _true_residual(hess, res.x, rhs) <= TOL

    def test_non_positive_curvature_from_lowered_operator(self, small_apply):
        eng, hess, rhs = small_apply
        injected = _Injected(hess, lambda h: -1.0 * GaussNewtonHessian(h.forward, h.noise_std, h.reg))
        eng.calls.clear()
        res = conjugate_gradient(injected.apply, rhs, tol=TOL, maxiter=MAXITER)
        assert res.converged and res.escalated
        assert _true_residual(hess, res.x, rhs) <= TOL
        exact = conjugate_gradient(lambda v: hess.apply(v), rhs, tol=TOL, maxiter=MAXITER)
        assert res.iterations <= exact.iterations + 2

    def test_nan_from_lowered_operator_still_raises(self, small_apply):
        _, hess, rhs = small_apply
        nan = CallableOperator(hess.in_shape, hess.out_shape, lambda v: np.full_like(v, np.nan))
        injected = _Injected(hess, lambda h: nan)
        with pytest.raises(CGBreakdownError) as ei:
            conjugate_gradient(injected.apply, rhs, tol=TOL, maxiter=MAXITER)
        assert ei.value.kind == "rho_breakdown"
        assert ei.value.state.iteration == 0


class TestResume:
    @pytest.mark.parametrize("escalate", [False, True], ids=["lowered", "escalated"])
    def test_bitwise_from_every_checkpoint(self, small_apply, escalate):
        _, hess, rhs = small_apply
        operator = hess.apply
        if escalate:
            operator = _Injected(
                hess, lambda h: 0.25 * GaussNewtonHessian(h.forward, h.noise_std, h.reg)
            ).apply
        states = []
        full = conjugate_gradient(
            operator, rhs, tol=TOL, maxiter=MAXITER, checkpoint_every=1, checkpoint=states.append
        )
        assert full.converged and full.escalated == escalate and full.preconditioned
        assert [s.iteration for s in states] == list(range(1, full.iterations))
        for state in states:
            restored = CGState.from_arrays(state.to_arrays())
            resumed = conjugate_gradient(operator, rhs, tol=TOL, maxiter=MAXITER, resume=restored)
            _assert_same_solve(resumed, full)
            assert resumed.exact_applies == full.exact_applies
            assert resumed.escalated == full.escalated
            assert resumed.preconditioned

    def test_two_scalar_state_is_refused(self):
        # The layout before replacement: no anchor, escalation or apply
        # count to resume from, so no resume.
        rng = np.random.default_rng(321)
        B = rng.standard_normal((24, 24))
        A = B @ B.T + 24 * np.eye(24)
        b = rng.standard_normal(24)
        states = []
        full = conjugate_gradient(lambda x: A @ x, b, tol=1e-10, checkpoint_every=3,
                                  checkpoint=states.append)
        arrays = states[-1].to_arrays()
        arrays["scalars"] = arrays["scalars"][:2]
        with pytest.raises(CheckpointSchemaError, match="lacks 4 of its 6 scalars"):
            CGState.from_arrays(arrays)
        resumed = conjugate_gradient(lambda x: A @ x, b, tol=1e-10,
                                     resume=CGState.from_arrays(states[-1].to_arrays()))
        _assert_same_solve(resumed, full)


class TestConditionNumber:
    def test_engine_kappa_is_the_matrix_kappa_computed_once(self, monkeypatch):
        # kappa, M and three service flushes: one SVD per frequency per engine.
        matrix = BlockTriangularToeplitz(_blocks((32, 24, 96)))
        want = matrix.condition_number_hat()
        calls = []
        real = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        eng = FFTMatvec(matrix)
        assert not calls  # lazily: building an engine computes nothing
        kappa = eng.condition_number_hat()
        assert kappa == pytest.approx(want, rel=1e-12)
        forward = ForwardOperator(eng)
        hess = GaussNewtonHessian(forward, 1.0, RIDGE * IdentityOperator(forward.in_shape))
        assert hess.preconditioner is not None
        assert eng.condition_number_hat() == kappa
        assert len(calls) == eng.n_freq

        async def flushes():
            service = SolverService(EngineCache(64 * 2**20), max_block_k=2)
            handle = service.register(matrix)
            d = np.random.default_rng(3).standard_normal((matrix.nt, matrix.nd))
            async with service:
                await service.solve(handle, d)
                await asyncio.gather(service.solve(handle, d), service.solve(handle, d))
                await service.solve(handle, d)
                return service.stats().flushes

        assert asyncio.run(flushes()) == 3
        assert len(calls) == 2 * eng.n_freq  # the service's engine: one pass


class TestAt:
    def test_lowered_operators_are_rebuilt_on_the_same_engine_and_kept(self, small_apply):
        eng, hess, _ = small_apply
        low = hess.at("ddsdd")
        assert low is hess.at(PrecisionConfig.parse("ddsdd"))
        assert hess.at("ddddd") is hess
        assert low.forward.engine is eng and str(low.forward.config) == "ddsdd"
        assert str(low.backward.config) == "ddsdd" and low.reg is hess.reg
        assert low.engine is eng and str(low.config) == "ddsdd"

    def test_operators_with_no_engine_are_their_own_lowering(self):
        ident = IdentityOperator((4, 3))
        assert ident.at("ddsdd") is ident
        assert (2.0 * ident).at("ddsdd").config is None
