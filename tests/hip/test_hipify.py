"""Tests for the hipify-perl work-alike translator."""

import pytest

from repro.hip.hipify import HipifyResult, UnsupportedAPIError, hipify_perl
from repro.hip.mappings import CUDA_TO_HIP, INCLUDE_MAP, UNSUPPORTED_CUDA


class TestBasicTranslation:
    def test_runtime_api(self):
        out = hipify_perl("cudaMalloc(&p, n); cudaFree(p);").source
        assert "hipMalloc(&p, n)" in out and "hipFree(p)" in out
        assert "cuda" not in out

    def test_longest_match_wins(self):
        # cudaMemcpyAsync must not become hipMemcpyAsync via cudaMemcpy
        out = hipify_perl("cudaMemcpyAsync(d, s, n, cudaMemcpyDeviceToHost, st);").source
        assert "hipMemcpyAsync" in out
        assert "hipMemcpyDeviceToHost" in out

    def test_word_boundaries(self):
        # identifiers embedding a CUDA name must not be rewritten
        src = "void my_cudaMallocWrapper(); int xcudaFreex;"
        out = hipify_perl(src).source
        assert out == src

    def test_cublas(self):
        out = hipify_perl(
            "cublasZgemvStridedBatched(h, CUBLAS_OP_C, m, n, a, A, lda, sA, x, 1, sx, b, y, 1, sy, bc);"
        ).source
        assert "hipblasZgemvStridedBatched" in out
        assert "HIPBLAS_OP_C" in out

    def test_cufft(self):
        out = hipify_perl("cufftExecD2Z(plan, in, out);").source
        assert "hipfftExecD2Z" in out

    def test_cufft_inverse_enum(self):
        assert "HIPFFT_BACKWARD" in hipify_perl("int d = CUFFT_INVERSE;").source

    def test_nccl_to_rccl_headers(self):
        out = hipify_perl('#include <nccl.h>\nncclAllReduce(a,b,c,ncclDouble,ncclSum,comm,s);').source
        assert "rccl/rccl.h" in out
        assert "ncclAllReduce" in out  # RCCL keeps the nccl prefix

    def test_include_rewrites(self):
        src = '#include <cuda_runtime.h>\n#include "cufft.h"\n'
        out = hipify_perl(src).source
        assert "<hip/hip_runtime.h>" in out
        assert '"hipfft/hipfft.h"' in out

    def test_kernel_launch_syntax_passthrough(self):
        src = "mykernel<<<grid, block, 0, stream>>>(args);"
        assert hipify_perl(src).source == src

    def test_device_intrinsics(self):
        out = hipify_perl("v = __shfl_down_sync(mask, v, 8);").source
        assert "__shfl_down(" in out

    def test_complex_helpers(self):
        out = hipify_perl("cuDoubleComplex z = make_cuDoubleComplex(1,2); z = cuConj(z);").source
        assert "hipDoubleComplex" in out and "make_hipDoubleComplex" in out
        assert "hipConj" in out

    def test_trailing_newline_preserved(self):
        assert hipify_perl("cudaFree(p);\n").source.endswith("\n")
        assert not hipify_perl("cudaFree(p);").source.endswith("\n")


class TestStats:
    def test_family_counts(self):
        r = hipify_perl(
            "cudaMalloc(&p,n);\ncublasCreate(&h);\ncufftPlan1d(&pl,n,CUFFT_D2Z,1);\n"
        )
        assert r.stats.by_family["runtime"] == 1
        assert r.stats.by_family["cuBLAS"] == 1
        assert r.stats.by_family["cuFFT"] == 2  # function + enum
        assert r.stats.total == 4

    def test_changed_unchanged_lines(self):
        r = hipify_perl("int x = 1;\ncudaFree(p);\n")
        assert r.stats.unchanged_lines == 1
        assert r.stats.changed_lines == 1

    def test_pure_hip_source_untouched(self):
        src = "hipMalloc(&p, n);\nhipFree(p);\n"
        r = hipify_perl(src)
        assert r.source == src
        assert r.stats.total == 0


class TestUnsupported:
    def test_cutensor_raises(self):
        with pytest.raises(UnsupportedAPIError, match="cutensorPermute"):
            hipify_perl("cutensorPermute(in, out);", filename="setup.cu")

    def test_error_lists_file(self):
        with pytest.raises(UnsupportedAPIError, match="setup.cu"):
            hipify_perl("cutensorPermute(in, out);", filename="setup.cu")

    def test_non_strict_warns(self):
        r = hipify_perl("cutensorPermute(in, out);", strict=False)
        assert "cutensorPermute" in r.source
        assert any("not supported" in w for w in r.warnings)

    def test_custom_override_fixes(self):
        r = hipify_perl(
            "cutensorPermute(in, out);",
            custom_overrides={"cutensorPermute": "my_permute_kernel"},
        )
        assert "my_permute_kernel(in, out)" in r.source
        assert r.stats.by_family["custom-override"] == 1

    def test_is_unsupported(self):
        assert "cutensorPermute" in UNSUPPORTED_CUDA
        assert "cudaMalloc" not in UNSUPPORTED_CUDA


class TestIdempotence:
    def test_double_hipify_is_stable(self):
        src = "cudaMalloc(&p,n);\ncublasDgemv(h,CUBLAS_OP_T,m,n,a,A,lda,x,1,b,y,1);\n"
        once = hipify_perl(src).source
        twice = hipify_perl(once).source
        assert once == twice


class TestMappingTables:
    def test_no_identity_cuda_mappings(self):
        for cuda, hip in CUDA_TO_HIP.items():
            if cuda.startswith("nccl"):
                continue  # RCCL intentionally keeps names
            assert cuda != hip, f"{cuda} maps to itself"

    def test_unsupported_disjoint_from_mapped(self):
        assert not (UNSUPPORTED_CUDA & set(CUDA_TO_HIP))

    def test_include_targets_look_like_hip(self):
        for tgt in INCLUDE_MAP.values():
            assert tgt.startswith(("hip", "rccl", "hiptensor")), tgt

    def test_coverage_of_fftmatvec_apis(self):
        # every API family FFTMatvec uses must be translatable
        needed = [
            "cudaMalloc", "cudaMemcpyAsync", "cudaStreamCreate",
            "cufftPlanMany", "cufftExecD2Z", "cufftExecZ2D",
            "cublasZgemvStridedBatched", "cublasCgemvStridedBatched",
            "ncclAllReduce", "ncclBroadcast",
        ]
        for api in needed:
            assert api in CUDA_TO_HIP, api
