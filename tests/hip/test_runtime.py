"""Tests for the vendor-agnostic runtime facade."""

import pytest

from repro.gpu.device import SimulatedDevice
from repro.gpu.kernel import Dim3
from repro.gpu.specs import A100, MI300X
from repro.hip.build import OnTheFlyBuildSystem
from repro.hip.runtime import GPURuntime
from repro.util.validation import ReproError


def _exe(target):
    b = OnTheFlyBuildSystem()
    b.add_source("k.cu", "#include <cuda_runtime.h>\nvoid f(){cudaDeviceSynchronize();}\n")
    return b.build(target)


class TestVendorMatching:
    def test_matching_vendor_ok(self):
        GPURuntime(SimulatedDevice(MI300X), _exe(MI300X))

    def test_cuda_binary_on_amd_rejected(self):
        # exactly the failure the hipify workflow exists to prevent
        with pytest.raises(ReproError, match="NVIDIA"):
            GPURuntime(SimulatedDevice(MI300X), _exe(A100))

    def test_no_executable_ok(self):
        GPURuntime(SimulatedDevice(MI300X))


class TestRuntimeOps:
    @pytest.fixture
    def rt(self):
        return GPURuntime(SimulatedDevice(MI300X))

    def test_malloc_free(self, rt):
        h = rt.malloc(512, tag="x")
        rt.free(h)
        assert rt.device.allocator.in_use == 0

    def test_memcpy_advances_clock(self, rt):
        rt.memcpy(1e6)
        assert rt.device.clock.now > 0

    def test_launch(self, rt):
        t = rt.launch(
            "pad_kernel", Dim3(x=100), Dim3(x=256),
            bytes_read=1e6, bytes_written=1e6, phase="pad",
        )
        assert t > 0
        assert rt.device.clock.phase_total("pad") == 0  # phase ctx is caller's job
        assert rt.device.stats.launches == 1
