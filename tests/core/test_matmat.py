"""Blocked multi-RHS pipeline: FFTMatvec.matmat / rmatmat."""

import numpy as np
import pytest

from repro.core.matvec import FFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.device import SimulatedDevice
from repro.gpu.specs import MI300X
from repro.util.validation import ReproError


@pytest.fixture(scope="module")
def engine():
    rng = np.random.default_rng(42)
    matrix = BlockTriangularToeplitz.random(32, 6, 40, rng=rng, decay=0.05)
    return FFTMatvec(matrix, device=SimulatedDevice(MI300X))


@pytest.fixture()
def block(engine):
    rng = np.random.default_rng(7)
    return rng.standard_normal((engine.nt, engine.nm, 5))


class TestBlockedEqualsLooped:
    def test_forward_matches_looped_matvec(self, engine, block):
        D = engine.matmat(block)
        assert D.shape == (engine.nt, engine.nd, 5)
        for j in range(5):
            np.testing.assert_allclose(
                D[:, :, j], engine.matvec(block[:, :, j]), rtol=0, atol=1e-12
            )

    def test_adjoint_matches_looped_rmatvec(self, engine):
        rng = np.random.default_rng(8)
        D = rng.standard_normal((engine.nt, engine.nd, 5))
        M = engine.rmatmat(D)
        assert M.shape == (engine.nt, engine.nm, 5)
        for j in range(5):
            np.testing.assert_allclose(
                M[:, :, j], engine.rmatvec(D[:, :, j]), rtol=0, atol=1e-12
            )

    def test_forward_matches_dense_reference(self, engine, block):
        D = engine.matmat(block)
        for j in range(5):
            ref = engine.matrix.matvec_reference(block[:, :, j])
            np.testing.assert_allclose(D[:, :, j], ref, rtol=0, atol=1e-10)

    def test_k1_block_matches_matvec(self, engine, block):
        one = block[:, :, :1]
        np.testing.assert_allclose(
            engine.matmat(one)[:, :, 0],
            engine.matvec(one[:, :, 0]),
            rtol=0,
            atol=1e-12,
        )


class TestDeterministicColumns:
    """``deterministic=True``: column j is **bitwise** the vector apply —
    whatever the local widths (numpy picks its matmul loop by operand
    strides: one sensor row, or up to three, used to take another loop
    than the lone GEMV), with or without an arena or a device (a device
    books launches, it does not pick kernels), and on a pairwise engine,
    where the fixed tree keeps the promise and the flag is ignored."""

    # (4,1,48): one local sensor row; (4,2,4), (4,3,7): adjoint panels of
    # few rows; (12,8,1): one parameter — widths a skewed partition or an
    # ElasticEngine recovery hands a rank.
    SHAPES = [(32, 6, 40), (4, 1, 48), (4, 2, 4), (4, 3, 7), (12, 8, 1)]

    @pytest.mark.parametrize("reduction", ["fast", "pairwise"])
    @pytest.mark.parametrize("device", [False, True], ids=["nodev", "dev"])
    @pytest.mark.parametrize("arena", [False, True], ids=["noarena", "arena"])
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_column_j_is_the_vector_apply(self, shape, arena, device, reduction):
        nt, nd, nm = shape
        rng = np.random.default_rng(nt * 1000 + nd * 100 + nm)
        eng = FFTMatvec(
            rng.standard_normal(shape),
            device=SimulatedDevice(MI300X) if device else None,
            workspace=arena,
            reduction=reduction,
            backend="numpy",
        )
        for config in ("ddddd", "dssdd"):
            for k in (2, 5):
                M = rng.standard_normal((nt, nm, k))
                D = rng.standard_normal((nt, nd, k))
                FM = eng.matmat(M, config=config, deterministic=True)
                FtD = eng.rmatmat(D, config=config, deterministic=True)
                for j in range(k):
                    assert np.array_equal(FM[:, :, j], eng.matvec(M[:, :, j], config=config))
                    assert np.array_equal(FtD[:, :, j], eng.rmatvec(D[:, :, j], config=config))

    def test_pairwise_engine_ignores_the_flag(self):
        rng = np.random.default_rng(5)
        dev = SimulatedDevice(MI300X, record_launches=True)
        eng = FFTMatvec(rng.standard_normal((12, 5, 7)), device=dev, reduction="pairwise")
        M = rng.standard_normal((12, 7, 4))
        assert np.array_equal(eng.matmat(M, deterministic=True), eng.matmat(M))
        booked = {rec.name for rec in dev.launch_log if rec.phase == "sbgemv"}
        assert not any("sbgemv" in name for name in booked), booked


class TestBlockedAdjointConsistency:
    def test_inner_product_identity(self, engine, block):
        # <F M, D> == <M, F* D> for blocks, the blocked adjoint test.
        rng = np.random.default_rng(9)
        D = rng.standard_normal((engine.nt, engine.nd, 5))
        lhs = float(np.sum(engine.matmat(block) * D))
        rhs = float(np.sum(block * engine.rmatmat(D)))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


class TestBlockedInterface:
    def test_scipy_style_flat_input(self, engine, block):
        flat = block.reshape(engine.nt * engine.nm, 5)
        np.testing.assert_allclose(
            engine.matmat(flat), engine.matmat(block), rtol=0, atol=0
        )

    def test_bad_shapes_raise(self, engine):
        with pytest.raises(ReproError):
            engine.matmat(np.zeros((engine.nt, engine.nm + 1, 2)))
        with pytest.raises(ReproError):
            engine.matmat(np.zeros((engine.nt * engine.nm + 1, 2)))
        with pytest.raises(ReproError):
            engine.rmatmat(np.zeros((engine.nt, engine.nm, 2)))  # needs Nd

    def test_counts_and_timing(self):
        rng = np.random.default_rng(3)
        matrix = BlockTriangularToeplitz.random(16, 3, 10, rng=rng)
        eng = FFTMatvec(matrix, device=SimulatedDevice(MI300X))
        eng.matmat(rng.standard_normal((16, 10, 4)))
        assert eng.matvec_count == 4  # logical operator actions
        assert eng.matmat_count == 1  # pipeline passes
        assert eng.last_timing is not None
        assert "k=4" in eng.last_timing.label
        assert set(eng.last_timing.phases) <= {"pad", "fft", "sbgemv", "ifft", "unpad"}

    def test_mixed_precision_configs_flow_through(self, engine, block):
        base = engine.matmat(block)
        mixed = engine.matmat(block, config="dssdd")
        rel = np.linalg.norm(mixed - base) / np.linalg.norm(base)
        assert 0 < rel < 1e-3  # single-precision phases perturb, mildly

    def test_blocked_device_time_beats_looped(self, engine, block):
        clock = engine.device.clock
        t0 = clock.now
        engine.matmat(block)
        t_block = clock.now - t0
        t0 = clock.now
        for j in range(block.shape[2]):
            engine.matvec(block[:, :, j])
        t_loop = clock.now - t0
        assert t_loop > 1.5 * t_block  # even at tiny sizes and k=5


class TestRelativeErrorCache:
    def test_reference_computed_once_per_input(self):
        rng = np.random.default_rng(5)
        matrix = BlockTriangularToeplitz.random(16, 3, 10, rng=rng)
        eng = FFTMatvec(matrix)
        m = rng.standard_normal((16, 10))
        eng.relative_error("dssdd", m)
        count_after_first = eng.matvec_count  # 1 ref + 1 mixed
        assert count_after_first == 2
        eng.relative_error("sssss", m)
        # Second sweep entry: only the mixed evaluation, ref is cached.
        assert eng.matvec_count == count_after_first + 1

    def test_precomputed_reference_argument(self):
        rng = np.random.default_rng(5)
        matrix = BlockTriangularToeplitz.random(16, 3, 10, rng=rng)
        eng = FFTMatvec(matrix)
        m = rng.standard_normal((16, 10))
        ref = eng.matvec(m, config="ddddd")
        before = eng.matvec_count
        err = eng.relative_error("dssdd", m, ref=ref)
        assert eng.matvec_count == before + 1  # only the mixed run
        assert err == eng.relative_error("dssdd", m, ref=ref)

    def test_cache_distinguishes_inputs_and_direction(self):
        rng = np.random.default_rng(6)
        matrix = BlockTriangularToeplitz.random(16, 3, 10, rng=rng)
        eng = FFTMatvec(matrix)
        m1 = rng.standard_normal((16, 10))
        m2 = rng.standard_normal((16, 10))
        e1 = eng.relative_error("dssdd", m1)
        e2 = eng.relative_error("dssdd", m2)
        assert e1 != e2  # different inputs, different cached refs
        d = rng.standard_normal((16, 3))
        assert eng.relative_error("dssdd", d, adjoint=True) > 0

    def test_baseline_config_is_exactly_zero(self):
        rng = np.random.default_rng(6)
        matrix = BlockTriangularToeplitz.random(8, 2, 6, rng=rng)
        eng = FFTMatvec(matrix)
        m = rng.standard_normal((8, 6))
        assert eng.relative_error("ddddd", m) == 0.0
        assert eng.relative_error("ddddd", m) == 0.0  # cached ref path too
