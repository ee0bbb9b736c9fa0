"""Tests for the device memory allocator."""

import pytest

from repro.gpu.memory import DeviceAllocator, OutOfMemoryError
from repro.gpu.specs import MI250X_GCD, MI300X
from repro.util.validation import ReproError


@pytest.fixture
def alloc():
    return DeviceAllocator(MI300X)


class TestAllocation:
    def test_malloc_free_cycle(self, alloc):
        a = alloc.malloc(1000, tag="x")
        assert alloc.in_use >= 1000
        alloc.free(a)
        assert alloc.in_use == 0
        assert alloc.n_allocs == 1 and alloc.n_frees == 1

    def test_alignment_rounding(self, alloc):
        a = alloc.malloc(1)
        assert a.nbytes == 256
        b = alloc.malloc(257)
        assert b.nbytes == 512

    def test_zero_bytes_ok(self, alloc):
        a = alloc.malloc(0)
        assert a.nbytes == 0
        alloc.free(a)

    def test_negative_raises(self, alloc):
        with pytest.raises(ReproError):
            alloc.malloc(-1)

    def test_peak_tracking(self, alloc):
        a = alloc.malloc(10_000)
        b = alloc.malloc(20_000)
        alloc.free(a)
        c = alloc.malloc(1_000)
        assert alloc.peak >= 30_000
        alloc.free(b)
        alloc.free(c)
        assert alloc.peak >= 30_000  # peak persists after frees


class TestOOM:
    def test_capacity_enforced(self):
        a = DeviceAllocator(MI250X_GCD)  # 64 GB
        a.malloc(60e9)
        with pytest.raises(OutOfMemoryError):
            a.malloc(8e9)

    def test_oom_message_names_device(self):
        a = DeviceAllocator(MI250X_GCD)
        with pytest.raises(OutOfMemoryError, match="MI250X"):
            a.malloc(65e9)

    def test_free_restores_capacity(self):
        a = DeviceAllocator(MI250X_GCD)
        h = a.malloc(60e9)
        a.free(h)
        a.malloc(60e9)  # fits again

    def test_capacity_override_is_the_budget(self):
        # The engine cache's byte budget: smaller than the device's HBM,
        # and enforced exactly like it.
        a = DeviceAllocator(MI300X, capacity=4096)
        assert a.capacity == 4096 and a.free_bytes == 4096
        a.malloc(4096)
        with pytest.raises(OutOfMemoryError):
            a.malloc(1)

    @pytest.mark.parametrize("capacity", [0, -256])
    def test_non_positive_capacity_raises(self, capacity):
        with pytest.raises(ReproError, match="capacity must be positive"):
            DeviceAllocator(MI300X, capacity=capacity)

    def test_paper_scale_fhat_fits(self):
        # the Nm=5000, Nd=100, Nt=1000 F_hat is ~8 GB complex double:
        # fits on a single MI250X GCD (64 GB), as the paper's runs show.
        a = DeviceAllocator(MI250X_GCD)
        a.malloc(1001 * 100 * 5000 * 16, tag="fhat")
        assert a.free_bytes > 0


class TestErrors:
    def test_double_free(self, alloc):
        h = alloc.malloc(100)
        alloc.free(h)
        with pytest.raises(ReproError, match="double free"):
            alloc.free(h)

    def test_free_returns_every_byte(self, alloc):
        h = alloc.malloc(100)
        assert alloc.in_use > 0
        alloc.free(h)
        assert alloc.in_use == 0

