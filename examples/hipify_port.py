#!/usr/bin/env python
"""Performance portability via hipify on-the-fly (paper Section 3.1).

Maintains a single CUDA source for an FFTMatvec-style kernel set, then:

1. translates the matvec source with hipify-perl,
2. builds it for an NVIDIA target (no translation) and an AMD target
   (hipified at compile time), runs each executable through the
   vendor-agnostic runtime on a matching simulated device, and shows
   the runtime refusing the CUDA build on an MI300X — the failure mode
   hipify exists to prevent,
3. shows the cuTENSOR-permutation problem: translation fails with
   "Not Supported" until a custom kernel override is registered —
   mirroring how the real application replaced cuTENSOR v2 permutation
   with a custom GPU kernel,
4. edits a source and rebuilds, demonstrating that only the modified
   file is re-hipified (content-hash caching, like the CMake setup).

Run:  python examples/hipify_port.py
"""

from repro.gpu.device import SimulatedDevice
from repro.gpu.kernel import Dim3
from repro.gpu.specs import A100, MI300X
from repro.hip import GPURuntime, OnTheFlyBuildSystem, UnsupportedAPIError, hipify_perl
from repro.util.validation import ReproError

MATVEC_CU = """\
#include <cuda_runtime.h>
#include <cublas_v2.h>
#include <cufft.h>
#include <nccl.h>

void fft_phase(cufftHandle plan, cufftDoubleReal* in, cufftDoubleComplex* out) {
    cufftExecD2Z(plan, in, out);
}

void sbgemv_phase(cublasHandle_t h, const cuDoubleComplex* A,
                  const cuDoubleComplex* x, cuDoubleComplex* y) {
    cublasZgemvStridedBatched(h, CUBLAS_OP_N, 100, 5000,
                              nullptr, A, 100, 500000,
                              x, 1, 5000, nullptr, y, 1, 100, 1001);
}

void reduce_phase(double* buf, size_t n, ncclComm_t comm, cudaStream_t s) {
    ncclAllReduce(buf, buf, n, ncclDouble, ncclSum, comm, s);
    cudaStreamSynchronize(s);
}
"""

SETUP_CU = """\
#include <cuda_runtime.h>
#include <cutensor.h>

void setup_permute(double* in, double* out) {
    cutensorPermute(in, out);   // cuTENSOR v2: no hipTensor counterpart yet
    cudaDeviceSynchronize();
}
"""

print("=== 1. direct translation of the matvec source ===")
result = hipify_perl(MATVEC_CU, filename="matvec.cu")
print(f"replacements by family: {result.stats.by_family}")
print("translated snippet:")
print("\n".join(result.source.splitlines()[:8]))

print("\n=== 2. build for NVIDIA (CUDA as-is) and AMD (hipified), run each ===")
build = OnTheFlyBuildSystem(hipify_enabled=True)
build.add_source("matvec.cu", MATVEC_CU)
exe_nv = build.build(A100)
print(f"NVIDIA build ok: arch={exe_nv.arch}, sources={exe_nv.sources}")
exe_amd = build.build(MI300X)
print(f"AMD build ok:    arch={exe_amd.arch} "
      f"(hipify invocations so far: {build.hipify_invocations})")

# One complex-double 100 x 5000 matrix of sbgemv_phase, on each runtime.
A_BYTES = 16 * 100 * 5000
for exe, spec in ((exe_nv, A100), (exe_amd, MI300X)):
    rt = GPURuntime(SimulatedDevice(spec), exe)
    buf = rt.malloc(A_BYTES, tag="A")
    t_copy = rt.memcpy(A_BYTES, kind="h2d")
    t_kernel = rt.launch("sbgemv_phase", Dim3(x=5000), Dim3(x=256),
                         bytes_read=A_BYTES, bytes_written=16 * 5000)
    rt.free(buf)
    print(f"{exe.target_vendor} runtime on {spec.name}: h2d {t_copy * 1e6:.1f} us, "
          f"sbgemv_phase {t_kernel * 1e6:.1f} us")
try:
    GPURuntime(SimulatedDevice(MI300X), exe_nv)
except ReproError as exc:
    print(f"CUDA build refused on {MI300X.name}: {exc}")

print("\n=== 3. the cuTENSOR permutation problem ===")
build.add_source("setup.cu", SETUP_CU)
try:
    build.build(MI300X)
except UnsupportedAPIError as exc:
    print(f"build failed as expected: {exc}")

print("\nregistering the custom permutation kernel (the paper's fix)...")
build_fixed = OnTheFlyBuildSystem(
    hipify_enabled=True,
    custom_overrides={"cutensorPermute": "fftmatvec_permute_kernel"},
)
build_fixed.add_source("matvec.cu", MATVEC_CU)
build_fixed.add_source("setup.cu", SETUP_CU)
exe = build_fixed.build(MI300X)
print("AMD build now succeeds; setup.cu contains:")
print("\n".join(exe.translated["setup.cu"].splitlines()[:6]))

print("\n=== 4. incremental re-hipification on source change ===")
before = build_fixed.cache_info()
build_fixed.update_source("matvec.cu", MATVEC_CU + "\n// tuned block size\n")
build_fixed.build(MI300X)
after = build_fixed.cache_info()
print(f"hipify invocations: {before['hipify_invocations']} -> "
      f"{after['hipify_invocations']} (only the edited file re-translated)")
