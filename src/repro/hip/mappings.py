"""CUDA → HIP identifier mapping tables.

A curated subset of the real hipify-perl tables covering everything the
FFTMatvec source uses: the CUDA runtime API, cuBLAS (→ hipBLAS), cuFFT
(→ hipFFT), NCCL (→ RCCL), cuRAND (→ hipRAND), driver types, error
enums, and kernel-launch syntax helpers.  Also the *deliberately absent*
entries: cuTENSOR v2 permutation APIs have no hipTensor counterpart at
the paper's time of writing (Section 3.1), so hipify must flag them and
the application falls back to a custom kernel.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

__all__ = ["CUDA_TO_HIP", "UNSUPPORTED_CUDA", "INCLUDE_MAP"]

# --------------------------------------------------------------------------
# Runtime API
# --------------------------------------------------------------------------
_RUNTIME: Dict[str, str] = {
    # memory
    "cudaMalloc": "hipMalloc",
    "cudaMallocAsync": "hipMallocAsync",
    "cudaMallocHost": "hipHostMalloc",
    "cudaMallocManaged": "hipMallocManaged",
    "cudaFree": "hipFree",
    "cudaFreeAsync": "hipFreeAsync",
    "cudaFreeHost": "hipHostFree",
    "cudaMemcpy": "hipMemcpy",
    "cudaMemcpyAsync": "hipMemcpyAsync",
    "cudaMemcpy2D": "hipMemcpy2D",
    "cudaMemset": "hipMemset",
    "cudaMemsetAsync": "hipMemsetAsync",
    "cudaMemGetInfo": "hipMemGetInfo",
    "cudaMemcpyHostToDevice": "hipMemcpyHostToDevice",
    "cudaMemcpyDeviceToHost": "hipMemcpyDeviceToHost",
    "cudaMemcpyDeviceToDevice": "hipMemcpyDeviceToDevice",
    "cudaMemcpyDefault": "hipMemcpyDefault",
    # device management
    "cudaSetDevice": "hipSetDevice",
    "cudaGetDevice": "hipGetDevice",
    "cudaGetDeviceCount": "hipGetDeviceCount",
    "cudaGetDeviceProperties": "hipGetDeviceProperties",
    "cudaDeviceSynchronize": "hipDeviceSynchronize",
    "cudaDeviceReset": "hipDeviceReset",
    "cudaDeviceProp": "hipDeviceProp_t",
    "cudaDeviceGetAttribute": "hipDeviceGetAttribute",
    # streams & events
    "cudaStream_t": "hipStream_t",
    "cudaStreamCreate": "hipStreamCreate",
    "cudaStreamCreateWithFlags": "hipStreamCreateWithFlags",
    "cudaStreamDestroy": "hipStreamDestroy",
    "cudaStreamSynchronize": "hipStreamSynchronize",
    "cudaStreamWaitEvent": "hipStreamWaitEvent",
    "cudaStreamNonBlocking": "hipStreamNonBlocking",
    "cudaEvent_t": "hipEvent_t",
    "cudaEventCreate": "hipEventCreate",
    "cudaEventDestroy": "hipEventDestroy",
    "cudaEventRecord": "hipEventRecord",
    "cudaEventSynchronize": "hipEventSynchronize",
    "cudaEventElapsedTime": "hipEventElapsedTime",
    # errors
    "cudaError_t": "hipError_t",
    "cudaSuccess": "hipSuccess",
    "cudaGetLastError": "hipGetLastError",
    "cudaPeekAtLastError": "hipPeekAtLastError",
    "cudaGetErrorString": "hipGetErrorString",
    "cudaErrorMemoryAllocation": "hipErrorOutOfMemory",
    "cudaErrorInvalidValue": "hipErrorInvalidValue",
    # launch utilities
    "cudaLaunchKernel": "hipLaunchKernel",
    "cudaFuncSetCacheConfig": "hipFuncSetCacheConfig",
    "cudaOccupancyMaxActiveBlocksPerMultiprocessor": (
        "hipOccupancyMaxActiveBlocksPerMultiprocessor"
    ),
}

# --------------------------------------------------------------------------
# cuBLAS → hipBLAS
# --------------------------------------------------------------------------
_CUBLAS: Dict[str, str] = {
    "cublasHandle_t": "hipblasHandle_t",
    "cublasCreate": "hipblasCreate",
    "cublasDestroy": "hipblasDestroy",
    "cublasSetStream": "hipblasSetStream",
    "cublasStatus_t": "hipblasStatus_t",
    "CUBLAS_STATUS_SUCCESS": "HIPBLAS_STATUS_SUCCESS",
    "CUBLAS_OP_N": "HIPBLAS_OP_N",
    "CUBLAS_OP_T": "HIPBLAS_OP_T",
    "CUBLAS_OP_C": "HIPBLAS_OP_C",
    # strided-batched GEMV: the workhorse of Phase 3
    "cublasSgemvStridedBatched": "hipblasSgemvStridedBatched",
    "cublasDgemvStridedBatched": "hipblasDgemvStridedBatched",
    "cublasCgemvStridedBatched": "hipblasCgemvStridedBatched",
    "cublasZgemvStridedBatched": "hipblasZgemvStridedBatched",
    "cublasSgemv": "hipblasSgemv",
    "cublasDgemv": "hipblasDgemv",
    "cublasCgemv": "hipblasCgemv",
    "cublasZgemv": "hipblasZgemv",
    "cublasSgemm": "hipblasSgemm",
    "cublasDgemm": "hipblasDgemm",
    "cublasDaxpy": "hipblasDaxpy",
    "cublasSaxpy": "hipblasSaxpy",
    "cublasDscal": "hipblasDscal",
    "cublasDdot": "hipblasDdot",
    "cublasDnrm2": "hipblasDnrm2",
}

# --------------------------------------------------------------------------
# cuFFT → hipFFT
# --------------------------------------------------------------------------
_CUFFT: Dict[str, str] = {
    "cufftHandle": "hipfftHandle",
    "cufftPlan1d": "hipfftPlan1d",
    "cufftPlanMany": "hipfftPlanMany",
    "cufftDestroy": "hipfftDestroy",
    "cufftSetStream": "hipfftSetStream",
    "cufftExecD2Z": "hipfftExecD2Z",
    "cufftExecZ2D": "hipfftExecZ2D",
    "cufftExecZ2Z": "hipfftExecZ2Z",
    "cufftExecR2C": "hipfftExecR2C",
    "cufftExecC2R": "hipfftExecC2R",
    "cufftExecC2C": "hipfftExecC2C",
    "cufftResult": "hipfftResult",
    "CUFFT_SUCCESS": "HIPFFT_SUCCESS",
    "CUFFT_D2Z": "HIPFFT_D2Z",
    "CUFFT_Z2D": "HIPFFT_Z2D",
    "CUFFT_Z2Z": "HIPFFT_Z2Z",
    "CUFFT_R2C": "HIPFFT_R2C",
    "CUFFT_C2R": "HIPFFT_C2R",
    "CUFFT_C2C": "HIPFFT_C2C",
    "CUFFT_FORWARD": "HIPFFT_FORWARD",
    "CUFFT_INVERSE": "HIPFFT_BACKWARD",
    "cufftDoubleComplex": "hipfftDoubleComplex",
    "cufftComplex": "hipfftComplex",
    "cufftDoubleReal": "hipfftDoubleReal",
    "cufftReal": "hipfftReal",
}

# --------------------------------------------------------------------------
# NCCL → RCCL (RCCL keeps the nccl prefix; headers change)
# --------------------------------------------------------------------------
_NCCL: Dict[str, str] = {
    "ncclComm_t": "ncclComm_t",
    "ncclUniqueId": "ncclUniqueId",
    "ncclGetUniqueId": "ncclGetUniqueId",
    "ncclCommInitRank": "ncclCommInitRank",
    "ncclCommDestroy": "ncclCommDestroy",
    "ncclAllReduce": "ncclAllReduce",
    "ncclReduce": "ncclReduce",
    "ncclBcast": "ncclBcast",
    "ncclBroadcast": "ncclBroadcast",
    "ncclAllGather": "ncclAllGather",
    "ncclReduceScatter": "ncclReduceScatter",
    "ncclGroupStart": "ncclGroupStart",
    "ncclGroupEnd": "ncclGroupEnd",
    "ncclFloat": "ncclFloat",
    "ncclDouble": "ncclDouble",
    "ncclSum": "ncclSum",
}

# --------------------------------------------------------------------------
# cuRAND → hipRAND
# --------------------------------------------------------------------------
_CURAND: Dict[str, str] = {
    "curandGenerator_t": "hiprandGenerator_t",
    "curandCreateGenerator": "hiprandCreateGenerator",
    "curandDestroyGenerator": "hiprandDestroyGenerator",
    "curandGenerateUniformDouble": "hiprandGenerateUniformDouble",
    "curandGenerateNormalDouble": "hiprandGenerateNormalDouble",
    "curandSetPseudoRandomGeneratorSeed": "hiprandSetPseudoRandomGeneratorSeed",
    "CURAND_RNG_PSEUDO_DEFAULT": "HIPRAND_RNG_PSEUDO_DEFAULT",
}

# --------------------------------------------------------------------------
# Device-side / vector types (identical spellings exist in HIP; hipify
# maps the cuda_ prefixed helpers).
# --------------------------------------------------------------------------
_DEVICE: Dict[str, str] = {
    "cudaDataType": "hipDataType",
    "CUDA_R_32F": "HIP_R_32F",
    "CUDA_R_64F": "HIP_R_64F",
    "CUDA_C_32F": "HIP_C_32F",
    "CUDA_C_64F": "HIP_C_64F",
    "cuDoubleComplex": "hipDoubleComplex",
    "cuFloatComplex": "hipFloatComplex",
    "cuComplex": "hipComplex",
    "make_cuDoubleComplex": "make_hipDoubleComplex",
    "make_cuFloatComplex": "make_hipFloatComplex",
    "cuCadd": "hipCadd",
    "cuCmul": "hipCmul",
    "cuCfma": "hipCfma",
    "cuConj": "hipConj",
    "__shfl_down_sync": "__shfl_down",
    "__shfl_xor_sync": "__shfl_xor",
}

CUDA_TO_HIP: Dict[str, str] = {}
for table in (_RUNTIME, _CUBLAS, _CUFFT, _NCCL, _CURAND, _DEVICE):
    CUDA_TO_HIP.update(table)

# Header include rewrites (hipify rewrites #include lines specially).
INCLUDE_MAP: Dict[str, str] = {
    "cuda_runtime.h": "hip/hip_runtime.h",
    "cuda.h": "hip/hip_runtime.h",
    "cublas_v2.h": "hipblas/hipblas.h",
    "cufft.h": "hipfft/hipfft.h",
    "curand.h": "hiprand/hiprand.h",
    "nccl.h": "rccl/rccl.h",
    "cuComplex.h": "hip/hip_complex.h",
    "cooperative_groups.h": "hip/hip_cooperative_groups.h",
    "cutensor.h": "hiptensor/hiptensor.h",
}

# cuTENSOR v2 permutation APIs have no hipTensor counterpart yet
# (Section 3.1): hipify must surface these as "Not Supported" unless the
# application provides a custom implementation.
UNSUPPORTED_CUDA: FrozenSet[str] = frozenset(
    {
        "cutensorPermute",
        "cutensorCreatePermutation",
        "cutensorPermutationExecute",
        "cutensorPlanPreference_t",
        "cutensorCreatePlan",
    }
)
