"""Composable linear operators (core/operator.py)."""

import numpy as np
import pytest

from repro.core.matvec import FFTMatvec
from repro.core.operator import (
    AdjointOperator,
    CallableOperator,
    ForwardOperator,
    GaussNewtonHessian,
    IdentityOperator,
    LinearOperator,
)
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.util.validation import ReproError


@pytest.fixture(scope="module")
def engine():
    rng = np.random.default_rng(11)
    return FFTMatvec(BlockTriangularToeplitz.random(16, 4, 12, rng=rng, decay=0.1))


@pytest.fixture()
def rng():
    return np.random.default_rng(23)


class TestEngineOperators:
    def test_forward_matches_matvec(self, engine, rng):
        F = ForwardOperator(engine)
        m = rng.standard_normal((16, 12))
        np.testing.assert_array_equal(F.apply(m), engine.matvec(m))
        assert F.in_shape == (16, 12) and F.out_shape == (16, 4)

    def test_apply_block_uses_blocked_pipeline(self, engine, rng):
        F = ForwardOperator(engine)
        before = engine.matmat_count
        M = rng.standard_normal((16, 12, 3))
        D = F.apply_block(M)
        assert engine.matmat_count == before + 1
        for j in range(3):
            np.testing.assert_allclose(
                D[:, :, j], engine.matvec(M[:, :, j]), rtol=0, atol=1e-12
            )

    def test_adjoint_round_trip(self, engine, rng):
        F = ForwardOperator(engine)
        Fs = F.adjoint()
        assert isinstance(Fs, AdjointOperator)
        assert Fs.in_shape == F.out_shape and Fs.out_shape == F.in_shape
        assert isinstance(Fs.adjoint(), ForwardOperator)
        m = rng.standard_normal((16, 12))
        d = rng.standard_normal((16, 4))
        lhs = float(np.sum(F.apply(m) * d))
        rhs = float(np.sum(m * Fs.apply(d)))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_call_dispatches_on_ndim(self, engine, rng):
        F = ForwardOperator(engine)
        m = rng.standard_normal((16, 12))
        M = rng.standard_normal((16, 12, 2))
        assert F(m).shape == (16, 4)
        assert F(M).shape == (16, 4, 2)


class TestAlgebra:
    def test_sum_and_scale(self, engine, rng):
        F = ForwardOperator(engine)
        m = rng.standard_normal((16, 12))
        np.testing.assert_allclose(
            (F + F).apply(m), 2 * F.apply(m), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            (3.0 * F).apply(m), 3 * F.apply(m), rtol=0, atol=1e-12
        )

    def test_compose_normal_equations(self, engine, rng):
        F = ForwardOperator(engine)
        FtF = F.adjoint() @ F
        assert FtF.in_shape == FtF.out_shape == (16, 12)
        m = rng.standard_normal((16, 12))
        np.testing.assert_allclose(
            FtF.apply(m), engine.rmatvec(engine.matvec(m)), rtol=0, atol=1e-12
        )
        # adjoint of a composition reverses the factors
        np.testing.assert_allclose(
            FtF.adjoint().apply(m), FtF.apply(m), rtol=0, atol=1e-10
        )

    def test_shape_mismatch_raises(self, engine):
        F = ForwardOperator(engine)
        I = IdentityOperator((16, 12))
        with pytest.raises(ReproError):
            _ = F + I  # (16,12)->(16,4) vs identity on (16,12)
        with pytest.raises(ReproError):
            _ = F @ F  # F's output is not F's input

    def test_identity_and_callable(self, rng):
        I = IdentityOperator((4, 3))
        v = rng.standard_normal((4, 3))
        np.testing.assert_array_equal(I.apply(v), v)
        assert I.adjoint() is I
        double = CallableOperator((4, 3), (4, 3), lambda x: 2 * x, fn_adjoint=lambda x: 2 * x)
        np.testing.assert_allclose((I + double).apply(v), 3 * v)
        V = rng.standard_normal((4, 3, 5))
        np.testing.assert_allclose(double.apply_block(V), 2 * V)
        with pytest.raises(ReproError):
            CallableOperator((4, 3), (4, 3), lambda x: x).adjoint()

    def test_input_validation(self, rng):
        I = IdentityOperator((4, 3))
        with pytest.raises(ReproError):
            I.apply(rng.standard_normal((3, 4)))
        with pytest.raises(ReproError):
            I.apply_block(rng.standard_normal((4, 3)))
        with pytest.raises(ReproError):
            LinearOperator((4, 3), (4, 3)).adjoint()


_W = np.random.default_rng(5).standard_normal((12, 4))


def _dense_map():
    """(16, 12) -> (16, 4) by a fixed matrix, with adjoint and blocked form."""
    return CallableOperator(
        (16, 12),
        (16, 4),
        lambda x: x @ _W,
        fn_adjoint=lambda y: y @ _W.T,
        fn_block=lambda X: np.einsum("tik,ij->tjk", X, _W),
    )


# Every way the algebra combines operators, built on the engine's F.
_EXPRESSIONS = {
    "sum": lambda F: F + _dense_map(),
    "scaled": lambda F: -2.5 * F,
    "composed": lambda F: F @ IdentityOperator((16, 12)),
    "normal": lambda F: F.adjoint() @ F,
    "nested": lambda F: (
        0.5 * (F + _dense_map())
        @ (IdentityOperator((16, 12)) + 3.0 * IdentityOperator((16, 12)))
    ),
}


class TestAlgebraAdjoints:
    @pytest.mark.parametrize("expr", _EXPRESSIONS)
    def test_adjoint_satisfies_the_dot_product_identity(self, engine, rng, expr):
        A = _EXPRESSIONS[expr](ForwardOperator(engine))
        At = A.T
        assert At.in_shape == A.out_shape and At.out_shape == A.in_shape
        v = rng.standard_normal(A.in_shape)
        w = rng.standard_normal(A.out_shape)
        lhs, rhs = float(np.sum(A.apply(v) * w)), float(np.sum(v * At.apply(w)))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("expr", _EXPRESSIONS)
    def test_block_action_is_the_column_actions(self, engine, rng, expr):
        A = _EXPRESSIONS[expr](ForwardOperator(engine))
        V = rng.standard_normal(A.in_shape + (3,))
        AV = A.apply_block(V)
        assert AV.shape == A.out_shape + (3,)
        for j in range(3):
            np.testing.assert_allclose(AV[:, :, j], A.apply(V[:, :, j]), rtol=0, atol=1e-10)


class TestGaussNewtonHessian:
    def test_matches_manual_normal_equations(self, engine, rng):
        F = ForwardOperator(engine)
        reg = CallableOperator((16, 12), (16, 12), lambda x: 0.5 * x,
                               fn_adjoint=lambda x: 0.5 * x)
        H = GaussNewtonHessian(F, noise_std=0.1, reg=reg)
        m = rng.standard_normal((16, 12))
        want = engine.rmatvec(engine.matvec(m)) / 0.1**2 + 0.5 * m
        np.testing.assert_allclose(H.apply(m), want, rtol=0, atol=1e-9)
        assert H.adjoint() is H

    def test_blocked_action_matches_columns(self, engine, rng):
        H = GaussNewtonHessian(ForwardOperator(engine), noise_std=1.0)
        V = rng.standard_normal((16, 12, 4))
        HV = H.apply_block(V)
        for j in range(4):
            np.testing.assert_allclose(
                HV[:, :, j], H.apply(V[:, :, j]), rtol=0, atol=1e-10
            )

    def test_spd_for_block_cg(self, engine, rng):
        H = GaussNewtonHessian(
            ForwardOperator(engine),
            noise_std=1.0,
            reg=IdentityOperator((16, 12)),
        )
        v = rng.standard_normal((16, 12))
        assert float(np.sum(v * H.apply(v))) > 0

    def test_validation(self, engine):
        F = ForwardOperator(engine)
        with pytest.raises(ReproError):
            GaussNewtonHessian(F, noise_std=0.0)
        with pytest.raises(ReproError):
            GaussNewtonHessian(F, reg=IdentityOperator((16, 4)))
