"""Tests for SOTI/TOSI reorders and pad/unpad phase kernels."""

import numpy as np
import pytest

from repro.core.phases import pad_to_soti, padded_buffer, unpad_from_soti
from repro.core.reorder import soti_to_tosi, tosi_to_soti, transpose_into
from repro.util.workspace import Workspace
from repro.gpu.device import SimulatedDevice
from repro.util.dtypes import Precision
from repro.util.validation import ReproError


class TestReorders:
    def test_roundtrip(self, rng):
        v = rng.standard_normal((7, 11))
        np.testing.assert_array_equal(soti_to_tosi(tosi_to_soti(v)), v)

    def test_transpose_semantics(self, rng):
        v = rng.standard_normal((3, 5))
        np.testing.assert_array_equal(tosi_to_soti(v), v.T)

    def test_fused_cast(self, rng):
        v = rng.standard_normal((4, 4))
        out = tosi_to_soti(v, precision=Precision.SINGLE)
        assert out.dtype == np.float32

    def test_complex_preserved(self, rng):
        v = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        out = soti_to_tosi(v, precision=Precision.SINGLE)
        assert out.dtype == np.complex64

    def test_contiguous_output(self, rng):
        out = tosi_to_soti(rng.standard_normal((5, 9)))
        assert out.flags["C_CONTIGUOUS"]

    def test_1d_rejected(self):
        with pytest.raises(ReproError):
            tosi_to_soti(np.zeros(5))

    def test_device_charged(self, rng):
        dev = SimulatedDevice("MI300X")
        tosi_to_soti(rng.standard_normal((100, 100)), device=dev, phase="sbgemv")
        assert dev.clock.now > 0

    @pytest.mark.parametrize(
        "shape,row_elems",
        [
            ((1, 1), None), ((1, 300), None), ((300, 1), None), ((65, 257), None),
            ((1030, 70), None),  # odd stride: 1024-row tiles, one ragged
            ((70, 1030), None),  # 1024-column tiles, one ragged
            ((130, 300), 2048),  # rows 16 KB apart: 64-row tiles
            ((300, 200), 512),  # rows 4 KB apart: 256-row tiles
        ],
    )
    @pytest.mark.parametrize("cast", [False, True])
    def test_tiled_transpose_is_the_plain_assignment(self, rng, shape, row_elems, cast):
        # Tile edges on both axes, for every row-tile height the source
        # stride selects; strided operands on both sides; cast on the write.
        if row_elems is None:
            src = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        else:  # a column slab of a wider float64 array
            src = rng.standard_normal((shape[0], row_elems))[:, 3 : 3 + shape[1]]
        dt = (np.complex64 if src.dtype.kind == "c" else np.float32) if cast else src.dtype
        want = np.empty(shape[::-1], dtype=dt)
        want[...] = src.T
        backing = np.full((shape[1], shape[0] + 5), 7, dtype=dt)
        got = transpose_into(backing[:, 3 : 3 + shape[0]], src)
        np.testing.assert_array_equal(got, want)
        assert np.all(backing[:, :3] == 7) and np.all(backing[:, 3 + shape[0] :] == 7)

    def test_out_lands_a_column_slab_in_place(self, rng):
        xhat = rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))
        full = np.zeros((9, 12), dtype=np.complex64)
        dev = SimulatedDevice("MI300X")
        res = soti_to_tosi(xhat, out=full[:, 4:9], device=dev, phase="sbgemv")
        assert np.shares_memory(res, full)
        np.testing.assert_array_equal(full[:, 4:9], xhat.T.astype(np.complex64))
        assert not full[:, :4].any() and not full[:, 9:].any()
        # Charged like the workspace path: written at the lower tier.
        ref = SimulatedDevice("MI300X")
        soti_to_tosi(xhat, precision=Precision.SINGLE, device=ref, phase="sbgemv",
                     workspace=Workspace())
        assert dev.clock.now == ref.clock.now
        with pytest.raises(ReproError, match="out buffer"):
            tosi_to_soti(xhat, out=np.empty((9, 4), dtype=complex))


class TestPad:
    def test_shape_and_content(self, rng):
        v = rng.standard_normal((6, 4))  # (Nt, nx)
        out = pad_to_soti(v, Precision.DOUBLE)
        assert out.shape == (4, 12)  # (nx, 2*Nt)
        np.testing.assert_array_equal(out[:, :6], v.T)
        assert np.all(out[:, 6:] == 0)

    def test_single_precision_output(self, rng):
        out = pad_to_soti(rng.standard_normal((3, 2)), Precision.SINGLE)
        assert out.dtype == np.float32

    def test_double_pad_is_exact(self, rng):
        v = rng.standard_normal((5, 3))
        out = pad_to_soti(v, Precision.DOUBLE)
        np.testing.assert_array_equal(out[:, :5], v.T)  # bitwise

    def test_complex_rejected(self):
        with pytest.raises(ReproError):
            pad_to_soti(np.zeros((2, 2), dtype=complex), Precision.DOUBLE)

    def test_1d_rejected(self):
        with pytest.raises(ReproError):
            pad_to_soti(np.zeros(4), Precision.DOUBLE)

    def test_device_charged(self, rng):
        dev = SimulatedDevice("MI300X")
        pad_to_soti(rng.standard_normal((64, 64)), Precision.DOUBLE, device=dev)
        assert dev.clock.now > 0

    def test_out_is_a_reused_slab_buffer_whose_zero_half_persists(self, rng):
        v = rng.standard_normal((6, 7))
        ws = Workspace()
        ws.begin_apply()
        buf = padded_buffer(4, 6, np.float32, ws)
        assert buf.shape == (4, 12) and not buf[:, 6:].any()
        for c0, c1 in ((0, 4), (4, 7)):  # a full slab, then a 3-column tail
            out = pad_to_soti(v[:, c0:c1], Precision.DOUBLE, out=buf[: c1 - c0])
            assert np.shares_memory(out, buf)
            np.testing.assert_array_equal(out[:, :6], v[:, c0:c1].T.astype(np.float32))
            assert not buf[:, 6:].any()
        ws.end_apply()
        ws.begin_apply()
        buf[:, :6] = np.nan  # only a *fresh* buffer is zeroed; the data half is the pad's
        assert padded_buffer(4, 6, np.float32, ws) is buf
        ws.end_apply()
        with pytest.raises(ReproError, match="out buffer"):
            pad_to_soti(v, Precision.DOUBLE, out=np.zeros((7, 11)))


class TestUnpad:
    def test_inverse_of_pad(self, rng):
        v = rng.standard_normal((6, 4))
        padded = pad_to_soti(v, Precision.DOUBLE)
        back = unpad_from_soti(padded, 6, Precision.DOUBLE)
        np.testing.assert_array_equal(back, v)

    def test_wrong_padded_length(self, rng):
        with pytest.raises(ReproError, match="padded length"):
            unpad_from_soti(rng.standard_normal((4, 10)), 6, Precision.DOUBLE)

    def test_cast_fused(self, rng):
        padded = rng.standard_normal((4, 12))
        out = unpad_from_soti(padded, 6, Precision.SINGLE)
        assert out.dtype == np.float32
        assert out.shape == (6, 4)
