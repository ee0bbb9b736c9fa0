"""Three-stream fused host/device/network grid schedule."""

import numpy as np
import pytest

from repro.comm.grid import ProcessGrid
from repro.comm.netmodel import FRONTIER_NETWORK
from repro.core.parallel import ParallelFFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.util.timing import HostModel
from repro.util.validation import ReproError

NT, ND, NM, K = 10, 8, 16, 5


@pytest.fixture(scope="module")
def mat():
    rng = np.random.default_rng(11)
    blocks = rng.standard_normal((NT, ND, NM)) * np.exp(
        -0.05 * np.arange(NT)[:, None, None]
    )
    return BlockTriangularToeplitz(blocks)


@pytest.fixture(scope="module")
def M():
    return np.random.default_rng(12).standard_normal((NT, NM, K))


def _make(mat, **kw):
    kw.setdefault("max_block_k", 2)
    return ParallelFFTMatvec(
        mat, ProcessGrid(2, 2, net=FRONTIER_NETWORK), spec="mi300x", **kw
    )


HM = HostModel(gen_time=50e-6, save_time=100e-6)


def test_hostmodel_validation():
    with pytest.raises(ReproError):
        HostModel(gen_time=-1e-6)
    with pytest.raises(ReproError):
        HostModel(save_time=-1.0)
    default = HostModel()
    assert default.per_vector == default.gen_time + default.save_time
    assert HM.per_vector == pytest.approx(150e-6)


@pytest.mark.parametrize("reduction", ["fast", "pairwise"])
def test_vector_apply_charges_one_vector_of_host_work(mat, M, reduction):
    eng = _make(mat, host=HM, reduction=reduction)
    eng.matvec(M[:, :, 0])
    assert eng.last_timing.phases["host"] == pytest.approx(HM.per_vector)


def test_no_host_leaves_timing_untouched(mat, M):
    eng = _make(mat)
    eng.matmat(M)
    assert "host" not in eng.last_timing.phases


def test_unfused_wall_is_two_stream_plus_host(mat, M):
    base = _make(mat)
    out0 = base.matmat(M)
    wall2 = base.last_timing.wall

    two = _make(mat, host=HM, overlap_host=False)
    out1 = two.matmat(M)
    host_total = K * HM.per_vector
    assert np.array_equal(out0, out1)
    assert two.last_timing.wall == pytest.approx(wall2 + host_total, abs=1e-15)
    assert two.last_timing.phases["host"] == pytest.approx(host_total, abs=1e-18)


def test_fused_wall_strictly_between(mat, M):
    base = _make(mat)
    out0 = base.matmat(M)
    wall2 = base.last_timing.wall

    fused = _make(mat, host=HM)
    out2 = fused.matmat(M)
    wall3 = fused.last_timing.wall
    host_total = K * HM.per_vector
    assert np.array_equal(out0, out2)  # numerics never move
    assert fused.last_timing.phases["host"] == pytest.approx(host_total, abs=1e-18)
    assert wall3 < wall2 + host_total  # strictly beats serial host
    assert wall3 >= wall2  # cannot beat the device-side critical path


def test_per_call_override(mat, M):
    two = _make(mat, host=HM, overlap_host=False)
    two.matmat(M)
    unfused_wall = two.last_timing.wall

    fused = _make(mat, host=HM, overlap_host=True)
    fused.matmat(M, overlap_host=False)
    assert fused.last_timing.wall == pytest.approx(unfused_wall, abs=1e-15)


def test_serial_schedule_charges_host_serially(mat, M):
    ser = _make(mat, host=HM, overlap=False)
    ser.matmat(M)
    assert ser.last_timing.phases["host"] == pytest.approx(
        K * HM.per_vector, abs=1e-18
    )


def test_pairwise_and_host_compose(mat, M):
    from repro.core.matvec import FFTMatvec

    ref = FFTMatvec(mat, reduction="pairwise").matmat(M)
    pw = _make(mat, reduction="pairwise", host=HM)
    assert np.array_equal(pw.matmat(M), ref)
    assert "host" in pw.last_timing.phases


def test_constructor_validation(mat):
    with pytest.raises(ReproError):
        _make(mat, host=0.001)  # not a HostModel
    with pytest.raises(ReproError):
        _make(mat, reduction="det")
