"""Tests for the on-the-fly build system (the CMake + hipify workflow)."""

import pytest

from repro.gpu.specs import A100, MI250X_GCD, MI300X
from repro.hip.build import CompileError, OnTheFlyBuildSystem
from repro.hip.hipify import UnsupportedAPIError
from repro.util.validation import ReproError

CUDA_SRC = """\
#include <cuda_runtime.h>
#include <cublas_v2.h>
void run(cublasHandle_t h) {
    double* p;
    cudaMalloc((void**)&p, 64);
    cublasDaxpy(h, 8, nullptr, p, 1, p, 1);
    cudaFree(p);
}
"""

CUTENSOR_SRC = """\
#include <cutensor.h>
void setup(double* a, double* b) { cutensorPermute(a, b); }
"""


@pytest.fixture
def build():
    b = OnTheFlyBuildSystem()
    b.add_source("main.cu", CUDA_SRC)
    return b


class TestBuilds:
    def test_nvidia_build_keeps_cuda(self, build):
        exe = build.build(A100)
        assert exe.target_vendor == "NVIDIA"
        assert exe.translated["main.cu"] == CUDA_SRC
        assert build.hipify_invocations == 0  # no hipification needed

    def test_amd_build_translates(self, build):
        exe = build.build(MI300X)
        assert exe.target_vendor == "AMD"
        assert "hipMalloc" in exe.translated["main.cu"]
        assert "cudaMalloc" not in exe.translated["main.cu"]

    def test_same_source_both_vendors(self, build):
        # the whole point: one maintained CUDA source, two targets
        build.build(A100)
        build.build(MI300X)
        build.build(MI250X_GCD)

    def test_empty_build_fails(self):
        with pytest.raises(CompileError, match="no sources"):
            OnTheFlyBuildSystem().build(MI300X)

    def test_hipify_toggle_off(self):
        b = OnTheFlyBuildSystem(hipify_enabled=False)
        b.add_source("main.cu", CUDA_SRC)
        b.build(A100)  # NVIDIA fine
        with pytest.raises(CompileError, match="hipification is disabled"):
            b.build(MI300X)

    def test_unknown_vendor(self, build):
        from dataclasses import replace

        weird = replace(MI300X, vendor="Cerebras")
        with pytest.raises(CompileError, match="Cerebras"):
            build.build(weird)


class TestCaching:
    def test_rebuild_uses_cache(self, build):
        build.build(MI300X)
        build.build(MI300X)
        assert build.hipify_invocations == 1

    def test_modified_source_rehipified(self, build):
        build.build(MI300X)
        build.update_source("main.cu", CUDA_SRC + "\n// change\n")
        build.build(MI300X)
        assert build.hipify_invocations == 2

    def test_only_modified_file_rehipified(self, build):
        build.add_source("other.cu", "#include <cuda_runtime.h>\nvoid g(){cudaDeviceSynchronize();}\n")
        build.build(MI300X)
        n = build.hipify_invocations
        build.update_source("other.cu", "#include <cuda_runtime.h>\nvoid g(){}\n")
        build.build(MI300X)
        assert build.hipify_invocations == n + 1  # main.cu cache hit

    def test_sources_are_listed_by_name(self, build):
        build.add_source("a_first.cu", "void g(){}\n")
        assert build.sources() == ["a_first.cu", "main.cu"]

    def test_update_unknown_source(self, build):
        with pytest.raises(ReproError):
            build.update_source("nope.cu", "x")

    def test_cache_info(self, build):
        build.build(MI300X)
        info = build.cache_info()
        assert info["sources"] == 1
        assert info["cached"] == 1
        assert info["builds"] == 1


class TestUnsupportedWorkflow:
    def test_cutensor_blocks_amd_build(self, build):
        build.add_source("setup.cu", CUTENSOR_SRC)
        with pytest.raises(UnsupportedAPIError):
            build.build(MI300X)

    def test_cutensor_fine_on_nvidia(self, build):
        build.add_source("setup.cu", CUTENSOR_SRC)
        build.build(A100)

    def test_custom_override_unblocks(self):
        b = OnTheFlyBuildSystem(
            custom_overrides={"cutensorPermute": "custom_permute"}
        )
        b.add_source("setup.cu", CUTENSOR_SRC)
        exe = b.build(MI300X)
        assert "custom_permute" in exe.translated["setup.cu"]
        assert "cutensorPermute" not in exe.translated["setup.cu"]

    @pytest.mark.parametrize("ident", ["cudaFancyNewApi", "cufftPlanMany2", "curandMakeNoise"])
    def test_unknown_cuda_identifier_fails_the_amd_compile(self, build, ident):
        # hipify leaves a name its tables do not know; the HIP toolchain
        # then finds it undeclared, while nvcc still compiles it.
        build.add_source("new.cu", f"void h(double* p) {{ {ident}(p); }}\n")
        with pytest.raises(CompileError, match=f"new.cu: .*{ident}"):
            build.build(MI300X)
        build.build(A100)

    def test_override_back_to_cuda_is_caught(self):
        b = OnTheFlyBuildSystem(custom_overrides={"cudaMalloc": "cudaMalloc"})
        b.add_source("main.cu", CUDA_SRC)
        with pytest.raises(CompileError, match="cudaMalloc"):
            b.build(MI300X)
