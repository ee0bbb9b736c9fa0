"""Tests for the simulated device."""

import pytest

from repro.gpu.device import SimulatedDevice, price_launch
from repro.gpu.kernel import Dim3, KernelLaunch, LaunchConfigError
from repro.gpu.specs import MI250X_GCD, MI300X
from repro.util.timing import SimClock, Timeline


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

    def test_own_clock(self):
        # Every device runs on its own clock: a rank's kernels move no
        # other rank's time.
        d, other = SimulatedDevice(MI300X), SimulatedDevice(MI300X)
        d.launch(_kernel())
        assert d.clock is not other.clock
        assert d.clock.now > 0 and other.clock.now == 0.0


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
        assert d.stats.per_kernel["a"] > d.stats.per_kernel["b"] > 0

    def test_launch_log_when_recording(self):
        d = SimulatedDevice(MI300X, record_launches=True)
        d.launch(_kernel("k1"), phase="fft")
        assert len(d.launch_log) == 1
        assert d.launch_log[0].phase == "fft"

    def test_no_log_by_default(self):
        d = SimulatedDevice(MI300X)
        d.launch(_kernel())
        assert d.launch_log == []

    def test_faster_gpu_faster_kernel(self):
        a = SimulatedDevice(MI300X)
        b = SimulatedDevice(MI250X_GCD)
        assert a.launch(_kernel(eff=0.7)) < b.launch(_kernel(eff=0.7))


class TestBook:
    """``book(kernel, price_launch(kernel, spec), phase)`` is ``launch``
    inside ``clock.phase(phase)``, for a caller that priced its launches
    once and opens no scope per apply."""

    def test_books_exactly_what_launch_books_inside_the_phase(self):
        plain = SimulatedDevice(MI300X, record_launches=True)
        booked = SimulatedDevice(MI300X, record_launches=True)
        kernels = [(_kernel("k1"), "fft"), (_kernel("k2", eff=0.3), "sbgemv"), (_kernel("k1"), "fft")]
        priced = [(k, price_launch(k, MI300X), phase) for k, phase in kernels]
        for _ in range(3):
            for (kernel, phase), entry in zip(kernels, priced):
                with plain.clock.phase(phase):
                    t = plain.launch(kernel, phase=phase)
                assert booked.book(*entry) == t
        assert booked.stats == plain.stats
        assert booked.launch_log == plain.launch_log
        assert booked.clock.now == plain.clock.now
        assert booked.clock.phase_totals() == plain.clock.phase_totals()

    def test_book_names_its_phase_whatever_scope_is_open(self):
        d = SimulatedDevice(MI300X)
        kernel = _kernel()
        t = price_launch(kernel, MI300X)
        with d.clock.phase("outer"):
            d.book(kernel, t, "fft")
            d.launch(kernel, phase="fft")  # the label does not attribute
        assert d.clock.phase_totals() == {"fft": t, "outer": t}

    def test_a_tally_of_bookings_charges_a_stream(self):
        # A scheduler puts a device's work on a stream by charging what a
        # tally of its bookings collected (the grid's per-rank route).
        d = SimulatedDevice(MI300X)
        kernel = _kernel()
        t = price_launch(kernel, MI300X)
        with d.clock.tally() as seconds:
            d.book(kernel, t, "fft")
        clock = SimClock()
        stream = Timeline(clock).stream("compute")
        stream.charge(seconds["fft"], phase="fft")
        assert d.clock.now == stream.cursor == t and clock.now == 0.0
        assert clock.phase_total("fft") == t and d.stats.launches == 1

    def test_invalid_launch_is_refused_by_the_price(self):
        d = SimulatedDevice(MI300X)
        bad = KernelLaunch(name="k", grid=Dim3(x=1, y=70000), block=Dim3(x=64))
        for _ in range(3):
            with pytest.raises(LaunchConfigError):
                d.launch(bad)
            with pytest.raises(LaunchConfigError):
                price_launch(bad, MI300X)
        assert d.stats.launches == 0 and d.clock.now == 0.0


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
        assert d.allocator.in_use == 0
