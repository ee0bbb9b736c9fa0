"""Tests for the simulated device."""

import pytest

from repro.gpu.device import SimulatedDevice
from repro.gpu.kernel import Dim3, KernelLaunch, LaunchConfigError
from repro.gpu.specs import MI250X_GCD, MI300X
from repro.util.timing import SimClock


def _kernel(name="k", bytes_read=1e6, bytes_written=1e6, eff=-1.0):
    return KernelLaunch(
        name=name,
        grid=Dim3(x=100),
        block=Dim3(x=256),
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        efficiency_hint=eff,
    )


class TestConstruction:
    def test_by_name(self):
        d = SimulatedDevice("MI300X")
        assert d.spec is MI300X

    def test_shared_clock(self):
        clock = SimClock()
        d = SimulatedDevice(MI300X, clock=clock)
        d.launch(_kernel())
        assert clock.now > 0


class TestLaunch:
    def test_advances_clock(self):
        d = SimulatedDevice(MI300X)
        t = d.launch(_kernel())
        assert t > 0
        assert d.clock.now == pytest.approx(t)

    def test_validates_geometry(self):
        d = SimulatedDevice(MI300X)
        bad = KernelLaunch(name="k", grid=Dim3(x=1, y=70000), block=Dim3(x=64))
        with pytest.raises(Exception):
            d.launch(bad)

    def test_efficiency_hint_respected(self):
        d = SimulatedDevice(MI300X)
        t_fast = d.launch(_kernel(eff=0.8))
        t_slow = d.launch(_kernel(eff=0.1))
        assert t_slow > t_fast

    def test_stats_accumulate(self):
        d = SimulatedDevice(MI300X)
        d.launch(_kernel("a"))
        d.launch(_kernel("a"))
        d.launch(_kernel("b"))
        assert d.stats.launches == 3
        assert d.stats.bytes_moved == pytest.approx(6e6)
        assert d.kernel_seconds("a") > d.kernel_seconds("b") > 0

    def test_launch_log_when_recording(self):
        d = SimulatedDevice(MI300X, record_launches=True)
        d.launch(_kernel("k1"), phase="fft")
        assert len(d.launch_log) == 1
        assert d.launch_log[0].phase == "fft"

    def test_no_log_by_default(self):
        d = SimulatedDevice(MI300X)
        d.launch(_kernel())
        assert d.launch_log == []

    def test_reset_stats(self):
        d = SimulatedDevice(MI300X)
        d.launch(_kernel())
        d.reset_stats()
        assert d.stats.launches == 0

    def test_faster_gpu_faster_kernel(self):
        a = SimulatedDevice(MI300X)
        b = SimulatedDevice(MI250X_GCD)
        assert a.launch(_kernel(eff=0.7)) < b.launch(_kernel(eff=0.7))


class TestLaunchMemo:
    def test_books_exactly_what_launch_books(self):
        plain = SimulatedDevice(MI300X, record_launches=True)
        memo = SimulatedDevice(MI300X, record_launches=True)
        built = []

        def build():
            built.append(1)
            return _kernel("k1")

        for _ in range(3):
            t = plain.launch(_kernel("k1"), phase="fft")
            assert memo.launch_memo(("k1", 1), build, phase="fft") == t
        assert len(built) == 1  # described, validated and priced once
        assert memo.stats == plain.stats
        assert memo.launch_log == plain.launch_log
        assert memo.clock.now == plain.clock.now

    def test_invalid_launch_raises_on_every_call(self):
        d = SimulatedDevice(MI300X)
        bad = KernelLaunch(name="k", grid=Dim3(x=1, y=70000), block=Dim3(x=64))
        for _ in range(3):
            with pytest.raises(LaunchConfigError):
                d.launch_memo("bad", lambda: bad)
        assert d.stats.launches == 0 and d.clock.now == 0.0

    def test_memo_is_bounded(self):
        d = SimulatedDevice(MI300X)
        for i in range(d._MEMO_MAX + 5):
            d.launch_memo(i, _kernel)
        assert len(d._memo) <= d._MEMO_MAX
        assert d.stats.launches == d._MEMO_MAX + 5


class TestMemcpy:
    def test_d2d(self):
        d = SimulatedDevice(MI300X)
        t = d.memcpy(1e9, kind="d2d")
        assert t > 0 and d.clock.now == pytest.approx(t)

    def test_h2d_slower_than_d2d(self):
        d = SimulatedDevice(MI300X)
        assert d.memcpy(1e9, kind="h2d") > d.memcpy(1e9, kind="d2d")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SimulatedDevice(MI300X).memcpy(10, kind="p2p")


class TestMemoryIntegration:
    def test_malloc_free_through_device(self):
        d = SimulatedDevice(MI300X)
        h = d.malloc(1024, tag="buf")
        assert d.allocator.in_use >= 1024
        d.free(h)
        d.allocator.assert_no_leaks()
