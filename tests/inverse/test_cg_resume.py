"""Checkpoint/resume property tests for the CG solvers.

The checkpoint satellite of the fault-tolerance PR: a solve resumed
from a :class:`CGState` / :class:`BlockCGState` captured at *any*
iteration boundary must replay the exact floating-point recurrence —
bitwise-identical iterates, residual histories, and iteration counts —
including after a round-trip through :class:`CheckpointStore` arrays.
"""

import numpy as np
import pytest

from repro.inverse.cg import (
    BlockCGState,
    CGBreakdownError,
    CGState,
    block_conjugate_gradient,
    conjugate_gradient,
)
from repro.util.checkpoint import (
    CheckpointFingerprintError,
    CheckpointStore,
    state_fingerprint,
)
from repro.util.validation import ReproError

N = 24
K = 3
TOL = 1e-10


@pytest.fixture(scope="module")
def spd():
    """A small dense SPD system that takes a dozen-plus CG iterations."""
    rng = np.random.default_rng(321)
    B = rng.standard_normal((N, N))
    A = B @ B.T + N * np.eye(N)
    b = rng.standard_normal(N)
    B_rhs = rng.standard_normal((N, K))
    return A, b, B_rhs


def _op(A):
    return lambda x: A @ x


class TestVectorCGResume:
    def test_resume_at_every_boundary_is_bitwise(self, spd):
        A, b, _ = spd
        states = []
        full = conjugate_gradient(
            _op(A), b, tol=TOL, checkpoint_every=1, checkpoint=states.append
        )
        assert full.converged
        assert full.iterations > 5
        # Checkpoints exist at every non-final iteration boundary.
        assert [s.iteration for s in states] == list(
            range(1, full.iterations)
        )
        for state in states:
            resumed = conjugate_gradient(_op(A), b, tol=TOL, resume=state)
            assert np.array_equal(resumed.x, full.x), (
                f"resume at iteration {state.iteration} changed bits"
            )
            assert resumed.iterations == full.iterations
            assert resumed.residual_norms == full.residual_norms
            assert resumed.converged

    def test_resume_does_not_mutate_the_state(self, spd):
        A, b, _ = spd
        states = []
        conjugate_gradient(
            _op(A), b, tol=TOL, checkpoint_every=2, checkpoint=states.append
        )
        state = states[0]
        x_before = state.x.copy()
        conjugate_gradient(_op(A), b, tol=TOL, resume=state)
        # A second resume from the very same state still matches.
        assert np.array_equal(state.x, x_before)
        again = conjugate_gradient(_op(A), b, tol=TOL, resume=state)
        assert np.array_equal(
            again.x, conjugate_gradient(_op(A), b, tol=TOL).x
        )

    def test_store_roundtrip_preserves_bitwise_resume(self, spd, tmp_path):
        A, b, _ = spd
        states = []
        full = conjugate_gradient(
            _op(A), b, tol=TOL, checkpoint_every=3, checkpoint=states.append
        )
        store = CheckpointStore(root=str(tmp_path / "ckpt"))
        fp = state_fingerprint(A, b, TOL)
        state = states[-1]
        store.save("cg", state.to_arrays(), fingerprint=fp, step=state.iteration)
        snap = store.load("cg", expect_fingerprint=fp)
        restored = CGState.from_arrays(snap.arrays)
        assert restored.iteration == state.iteration
        resumed = conjugate_gradient(_op(A), b, tol=TOL, resume=restored)
        assert np.array_equal(resumed.x, full.x)
        assert resumed.residual_norms == full.residual_norms

    def test_resume_validation(self, spd):
        A, b, _ = spd
        states = []
        conjugate_gradient(
            _op(A), b, tol=TOL, checkpoint_every=1, checkpoint=states.append
        )
        with pytest.raises(ReproError):
            conjugate_gradient(_op(A), b[: N - 1], tol=TOL, resume=states[0])
        with pytest.raises(ReproError):
            conjugate_gradient(_op(A), b, checkpoint_every=0, checkpoint=states.append)


class TestBlockCGResume:
    def test_resume_at_every_boundary_is_bitwise(self, spd):
        A, _, B_rhs = spd
        states = []
        full = block_conjugate_gradient(
            _op(A), B_rhs, tol=TOL, checkpoint_every=1, checkpoint=states.append
        )
        assert full.all_converged
        assert len(states) >= 5
        for state in states:
            resumed = block_conjugate_gradient(
                _op(A), B_rhs, tol=TOL, resume=state
            )
            assert np.array_equal(resumed.X, full.X), (
                f"block resume at iteration {state.iteration} changed bits"
            )
            assert resumed.iterations == full.iterations
            assert len(resumed.residual_norms) == len(full.residual_norms)
            for got, want in zip(resumed.residual_norms, full.residual_norms):
                assert np.array_equal(got, want)

    def test_store_roundtrip_preserves_bitwise_resume(self, spd):
        A, _, B_rhs = spd
        states = []
        full = block_conjugate_gradient(
            _op(A), B_rhs, tol=TOL, checkpoint_every=2, checkpoint=states.append
        )
        store = CheckpointStore()  # in-memory
        fp = state_fingerprint(A, B_rhs, TOL)
        for state in states:
            store.save(
                "bcg", state.to_arrays(), fingerprint=fp, step=state.iteration
            )
        # Resume from the checkpoint an operator crash would leave behind.
        snap = store.load("bcg")
        restored = BlockCGState.from_arrays(snap.arrays)
        resumed = block_conjugate_gradient(
            _op(A), B_rhs, tol=TOL, resume=restored
        )
        assert np.array_equal(resumed.X, full.X)
        assert np.array_equal(resumed.converged, full.converged)

    def test_fingerprint_guards_wrong_operator(self, spd):
        A, _, B_rhs = spd
        states = []
        block_conjugate_gradient(
            _op(A), B_rhs, tol=TOL, checkpoint_every=1, checkpoint=states.append
        )
        store = CheckpointStore()
        store.save(
            "bcg",
            states[0].to_arrays(),
            fingerprint=state_fingerprint(A, B_rhs, TOL),
        )
        wrong = state_fingerprint(A + 1.0, B_rhs, TOL)
        with pytest.raises(CheckpointFingerprintError):
            store.load("bcg", expect_fingerprint=wrong)


def _poisoned(A, healthy_calls):
    """Operator that returns NaN after ``healthy_calls`` applications —
    the signature of an undetected engine corruption leaking into CG."""
    calls = {"n": 0}

    def op(x):
        calls["n"] += 1
        if calls["n"] > healthy_calls:
            return np.full_like(np.asarray(A @ x), np.nan)
        return A @ x

    return op


def _stalled(A, healthy_calls, scale=0.01):
    """Operator that goes quietly wrong after ``healthy_calls``: each
    application leaks a small error *orthogonal to the input direction*,
    so the curvature ``p @ op(p)`` is exactly A's (non_spd can never
    fire) while the residual recurrence floors at the leak's absolute
    scale instead of converging — the stall a stagnation window exists
    to catch."""
    calls = {"n": 0}
    n = A.shape[0]
    u = np.ones(n) / np.sqrt(n)

    def op(x):
        calls["n"] += 1
        y = np.asarray(A @ x).copy()
        if calls["n"] <= healthy_calls:
            return y
        cols = y.reshape(n, -1)
        xs = np.asarray(x).reshape(n, -1)
        for j in range(cols.shape[1]):
            nx = float(np.linalg.norm(xs[:, j]))
            if nx > 0:
                xh = xs[:, j] / nx
                cols[:, j] += scale * (u - float(u @ xh) * xh)
        return y

    return op


def _skewed(A, healthy_calls, scale=10.0):
    """Operator that goes quietly wrong after ``healthy_calls``: it gains
    a skew-symmetric part ``S``, so every curvature ``p @ op(p)`` and the
    symmetric part of block CG's ``P^T op(P)`` are exactly A's (non_spd
    can never fire) while the residual recurrence stops contracting.
    Unlike :func:`_stalled`'s leak it is linear, so the recurrence and
    ``b - op(x)`` agree: the stall shows in the recurrence itself."""
    calls = {"n": 0}
    G = np.random.default_rng(5).standard_normal(A.shape)
    S = scale * (G - G.T)

    def op(x):
        calls["n"] += 1
        return A @ x if calls["n"] <= healthy_calls else (A + S) @ x

    return op


class TestVectorCGBreakdown:
    def test_non_spd_raises_typed(self, spd):
        A, b, _ = spd
        with pytest.raises(CGBreakdownError) as ei:
            conjugate_gradient(lambda x: -(A @ x), b, tol=TOL)
        assert ei.value.kind == "non_spd"
        assert "not SPD" in str(ei.value)
        assert isinstance(ei.value.state, CGState)
        assert ei.value.state.iteration == 0

    def test_rho_breakdown_carries_healthy_state(self, spd):
        A, b, _ = spd
        full = conjugate_gradient(_op(A), b, tol=TOL)
        assert full.converged and full.iterations > 6
        # Poison the operator mid-solve: init consumes one call, each
        # iteration one more, so 1 + 5 healthy calls dies at iter 6.
        with pytest.raises(CGBreakdownError) as ei:
            conjugate_gradient(_poisoned(A, 6), b, tol=TOL)
        err = ei.value
        assert err.kind == "rho_breakdown"
        state = err.state
        assert isinstance(state, CGState)
        assert state.iteration == 5
        assert np.all(np.isfinite(state.x)) and np.all(np.isfinite(state.r))

    def test_resume_after_breakdown_is_bitwise(self, spd):
        """The recovery loop: breakdown state -> healthy operator ->
        bitwise the uninterrupted solve."""
        A, b, _ = spd
        full = conjugate_gradient(_op(A), b, tol=TOL)
        with pytest.raises(CGBreakdownError) as ei:
            conjugate_gradient(_poisoned(A, 6), b, tol=TOL)
        res = conjugate_gradient(_op(A), b, tol=TOL, resume=ei.value.state)
        assert res.converged
        assert res.iterations == full.iterations
        assert np.array_equal(res.x, full.x)
        assert res.residual_norms == full.residual_norms

    def test_stagnation_detected(self, spd):
        A, b, _ = spd
        # A clean solve with the window armed must not false-positive.
        clean = conjugate_gradient(_op(A), b, tol=TOL, stagnation_window=5)
        assert clean.converged
        # A quietly-leaking operator stalls the recurrence; the
        # window turns the stall into a typed, restartable breakdown.
        with pytest.raises(CGBreakdownError) as ei:
            conjugate_gradient(
                _stalled(A, 4), b, tol=TOL, maxiter=500,
                stagnation_window=5,
            )
        err = ei.value
        assert err.kind == "stagnation"
        assert isinstance(err.state, CGState)
        assert np.all(np.isfinite(err.state.x))

    def test_stagnation_window_validation(self, spd):
        A, b, _ = spd
        with pytest.raises(ReproError):
            conjugate_gradient(_op(A), b, stagnation_window=0)
        with pytest.raises(ReproError):
            block_conjugate_gradient(
                _op(A), np.ones((N, 2)), stagnation_window=0
            )


class TestBlockCGBreakdown:
    def test_non_spd_raises_typed(self, spd):
        A, _, B_rhs = spd
        with pytest.raises(CGBreakdownError) as ei:
            block_conjugate_gradient(lambda M: -(A @ M), B_rhs, tol=TOL)
        assert ei.value.kind == "non_spd"
        assert "not SPD" in str(ei.value)
        assert isinstance(ei.value.state, BlockCGState)

    def test_resume_after_breakdown_is_bitwise(self, spd):
        A, _, B_rhs = spd
        full = block_conjugate_gradient(_op(A), B_rhs, tol=TOL)
        assert np.all(full.converged)
        with pytest.raises(CGBreakdownError) as ei:
            block_conjugate_gradient(_poisoned(A, 6), B_rhs, tol=TOL)
        err = ei.value
        assert err.kind == "rho_breakdown"
        state = err.state
        assert isinstance(state, BlockCGState)
        assert np.all(np.isfinite(state.X)) and np.all(np.isfinite(state.R))
        res = block_conjugate_gradient(
            _op(A), B_rhs, tol=TOL, resume=state
        )
        assert np.all(res.converged)
        assert res.iterations == full.iterations
        assert np.array_equal(res.X, full.X)

    def test_stagnation_detected(self, spd):
        A, _, B_rhs = spd
        clean = block_conjugate_gradient(
            _op(A), B_rhs, tol=TOL, stagnation_window=5
        )
        assert np.all(clean.converged)
        with pytest.raises(CGBreakdownError) as ei:
            block_conjugate_gradient(
                _stalled(A, 4), B_rhs, tol=TOL, maxiter=500,
                stagnation_window=5,
            )
        err = ei.value
        assert err.kind == "stagnation"
        assert isinstance(err.state, BlockCGState)
        assert np.all(np.isfinite(err.state.X))

    def test_linear_leak_stagnation_detected(self, spd):
        # A skew leak is linear, so the recurrence and B - A X agree, and
        # the recurrence itself stops contracting.
        A, _, B_rhs = spd
        with pytest.raises(CGBreakdownError) as ei:
            block_conjugate_gradient(
                _skewed(A, 4), B_rhs, tol=TOL, maxiter=500,
                stagnation_window=5,
            )
        err = ei.value
        assert err.kind == "stagnation"
        assert isinstance(err.state, BlockCGState)
        assert np.all(np.isfinite(err.state.X))
