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
        """Scaling is the one algebra left (a ridge is ``c * I``); sums
        and compositions are gone."""
        F = ForwardOperator(engine)
        m = rng.standard_normal((16, 12))
        np.testing.assert_allclose(
            (3.0 * F).apply(m), 3 * F.apply(m), rtol=0, atol=1e-12
        )
        np.testing.assert_array_equal((F * 3.0).apply(m), (3.0 * F).apply(m))
        with pytest.raises(TypeError):
            _ = F + F
        with pytest.raises(TypeError):
            _ = F.adjoint() @ F
        assert not hasattr(F, "T")

    def test_identity_and_callable(self, rng):
        I = IdentityOperator((4, 3))
        v = rng.standard_normal((4, 3))
        np.testing.assert_array_equal(I.apply(v), v)
        assert I.adjoint() is I
        double = CallableOperator((4, 3), (4, 3), lambda X: 2 * X, fn_adjoint=lambda X: 2 * X)
        np.testing.assert_array_equal(double.apply(v), 2 * v)
        np.testing.assert_array_equal(double.adjoint().apply(v), 2 * v)
        V = rng.standard_normal((4, 3, 5))
        np.testing.assert_allclose(double.apply_block(V), 2 * V)
        with pytest.raises(ReproError):
            CallableOperator((4, 3), (4, 3), lambda x: x).adjoint()

    def test_callable_sees_only_blocks(self, rng):
        """``fn`` is a block callable: a vector reaches it as the width-1
        block, never as a 2-D array."""
        seen = []

        def fn(X):
            seen.append(X.shape)
            return X[:, ::-1, :] * 1.0

        op = CallableOperator((4, 3), (4, 3), fn)
        v = rng.standard_normal((4, 3))
        np.testing.assert_array_equal(op.apply(v), v[:, ::-1])
        op.apply_block(rng.standard_normal((4, 3, 2)))
        assert seen == [(4, 3, 1), (4, 3, 2)]

    def test_input_validation(self, rng):
        I = IdentityOperator((4, 3))
        with pytest.raises(ReproError):
            I.apply(rng.standard_normal((3, 4)))
        with pytest.raises(ReproError):
            I.apply_block(rng.standard_normal((4, 3)))
        with pytest.raises(ReproError):
            LinearOperator((4, 3), (4, 3)).adjoint()
        with pytest.raises(NotImplementedError):
            LinearOperator((4, 3), (4, 3)).apply(rng.standard_normal((4, 3)))


_W = np.random.default_rng(5).standard_normal((12, 4))


def _dense_map():
    """(16, 12) -> (16, 4) by a fixed matrix, as block callables."""
    return CallableOperator(
        (16, 12),
        (16, 4),
        lambda X: np.einsum("tik,ij->tjk", X, _W),
        fn_adjoint=lambda Y: np.einsum("tjk,ij->tik", Y, _W),
    )


# Every kind of operator the layer builds, on the engine's F.
_EXPRESSIONS = {
    "forward": lambda F: F,
    "adjoint": lambda F: F.adjoint(),
    "scaled": lambda F: -2.5 * F,
    "dense": lambda F: _dense_map(),
    "scaled_dense": lambda F: 0.5 * _dense_map(),
}


class TestAlgebraAdjoints:
    @pytest.mark.parametrize("expr", _EXPRESSIONS)
    def test_adjoint_satisfies_the_dot_product_identity(self, engine, rng, expr):
        A = _EXPRESSIONS[expr](ForwardOperator(engine))
        At = A.adjoint()
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

    @pytest.mark.parametrize("expr", _EXPRESSIONS)
    def test_vector_is_the_width_one_block(self, engine, rng, expr):
        """Bitwise: ``apply(v)`` is column 0 of ``apply_block`` on v's
        width-1 block, whether the operator routes a vector to its
        engine's ``matvec`` or through the default width-1 path."""
        A = _EXPRESSIONS[expr](ForwardOperator(engine))
        v = rng.standard_normal(A.in_shape)
        np.testing.assert_array_equal(A.apply(v), A.apply_block(v[:, :, None])[:, :, 0])


class TestGaussNewtonHessian:
    def test_matches_manual_normal_equations(self, engine, rng):
        F = ForwardOperator(engine)
        reg = CallableOperator((16, 12), (16, 12), lambda X: 0.5 * X,
                               fn_adjoint=lambda X: 0.5 * X)
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
