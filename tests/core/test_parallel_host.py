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


@pytest.mark.parametrize("reduction", ["fast", "pairwise"])
def test_serial_apply_is_the_per_chunk_chain(mat, M, reduction):
    """``overlap=False`` runs each chunk as gen -> bcast -> compute ->
    reduce -> save, so the wall is the host-less serial wall plus the
    host total (to the order of the additions)."""
    base = _make(mat, reduction=reduction)
    out0 = base.matmat(M, overlap=False)
    wall = base.last_timing.wall

    ser = _make(mat, host=HM, reduction=reduction)
    out1 = ser.matmat(M, overlap=False)
    host_total = K * HM.per_vector
    assert np.array_equal(out0, out1)
    assert ser.last_timing.wall == pytest.approx(wall + host_total, rel=1e-12)
    assert ser.last_timing.phases["host"] == pytest.approx(host_total, abs=1e-18)


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


def test_host_stream_has_no_unfused_mode(mat):
    """A ``host=`` engine always runs the host stream; the serial-host
    baseline is a host-less wall plus ``k * host.per_vector``."""
    D = np.random.default_rng(3).standard_normal((mat.nt, mat.nd, K))
    base = _make(mat)
    out_base = base.rmatmat(D)
    serial_host = base.last_timing.wall + K * HM.per_vector

    fused = _make(mat, host=HM)
    assert np.array_equal(fused.rmatmat(D), out_base)
    assert fused.last_timing.wall < serial_host
    with pytest.raises(TypeError):
        _make(mat, host=HM, overlap_host=False)


def test_serial_schedule_charges_host_serially(mat, M):
    ser = _make(mat, host=HM)
    ser.matmat(M, overlap=False)
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
