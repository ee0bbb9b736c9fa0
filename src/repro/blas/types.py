"""BLAS-level enums and problem descriptors (rocBLAS naming)."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.util.dtypes import Precision
from repro.util.validation import ReproError, check_positive_int

__all__ = ["Operation", "BlasDatatype", "GemvProblem", "GemmProblem"]


class Operation(enum.Enum):
    """Matrix operation: none / transpose / conjugate transpose."""

    N = "N"
    T = "T"
    C = "C"  # conjugate transpose ("H" in rocblas-bench yaml)

    @classmethod
    def parse(cls, token) -> "Operation":
        if isinstance(token, Operation):
            return token
        t = str(token).strip().upper()
        if t in ("N", "NONE"):
            return cls.N
        if t == "T":
            return cls.T
        if t in ("C", "H"):  # rocblas-bench yaml uses H for conjugate transpose
            return cls.C
        raise ReproError(f"unknown operation {token!r}")

    @property
    def is_transposed(self) -> bool:
        return self is not Operation.N


class BlasDatatype(enum.Enum):
    """The four GEMV datatypes, named by their rocBLAS function letter."""

    S = "s"  # real single
    D = "d"  # real double
    C = "c"  # complex single
    Z = "z"  # complex double

    @classmethod
    def parse(cls, token) -> "BlasDatatype":
        if isinstance(token, BlasDatatype):
            return token
        t = str(token).strip().lower()
        for member in cls:
            if t == member.value:
                return member
        names = {
            "float32": cls.S,
            "float64": cls.D,
            "complex64": cls.C,
            "complex128": cls.Z,
            "real single": cls.S,
            "real double": cls.D,
            "complex single": cls.C,
            "complex double": cls.Z,
        }
        if t in names:
            return names[t]
        raise ReproError(f"unknown BLAS datatype {token!r}")

    @classmethod
    def from_dtype(cls, dtype) -> "BlasDatatype":
        dt = np.dtype(dtype)
        table = {
            np.dtype(np.float32): cls.S,
            np.dtype(np.float64): cls.D,
            np.dtype(np.complex64): cls.C,
            np.dtype(np.complex128): cls.Z,
        }
        if dt not in table:
            raise ReproError(f"no BLAS datatype for {dt}")
        return table[dt]

    @property
    def dtype(self) -> np.dtype:
        return {
            BlasDatatype.S: np.dtype(np.float32),
            BlasDatatype.D: np.dtype(np.float64),
            BlasDatatype.C: np.dtype(np.complex64),
            BlasDatatype.Z: np.dtype(np.complex128),
        }[self]

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def is_complex(self) -> bool:
        return self in (BlasDatatype.C, BlasDatatype.Z)

    @property
    def precision(self) -> Precision:
        return (
            Precision.SINGLE
            if self in (BlasDatatype.S, BlasDatatype.C)
            else Precision.DOUBLE
        )

    @property
    def function_name(self) -> str:
        """rocBLAS function name, e.g. ``rocblas_zgemv_strided_batched``."""
        return f"rocblas_{self.value}gemv_strided_batched"


@dataclass(frozen=True)
class GemvProblem:
    """One strided-batched GEMV problem: ``y_i = op(A_i) @ x_i``.

    ``m``/``n`` are the dimensions of each (untransposed) matrix ``A_i``;
    FFTMatvec's Phase 3 uses ``m = Nd``, ``n = local Nm``, batch
    ``Nt + 1`` and complex datatypes.
    """

    m: int
    n: int
    batch: int
    datatype: BlasDatatype
    operation: Operation

    def __post_init__(self) -> None:
        check_positive_int(self.m, "m")
        check_positive_int(self.n, "n")
        check_positive_int(self.batch, "batch")
        if self.operation is Operation.C and not self.datatype.is_complex:
            # rocblas-bench benchmarks T for real and H (==C) for complex.
            raise ReproError(
                "conjugate transpose is only meaningful for complex datatypes;"
                " use Operation.T for real"
            )

    @property
    def out_len(self) -> int:
        """Length of each output vector y_i."""
        return self.n if self.operation.is_transposed else self.m

    @property
    def in_len(self) -> int:
        """Length of each input vector x_i."""
        return self.m if self.operation.is_transposed else self.n

    @property
    def matrix_bytes(self) -> int:
        """Bytes of all batched matrices (the dominant traffic)."""
        return self.m * self.n * self.batch * self.datatype.itemsize

    @property
    def vector_bytes(self) -> int:
        """Bytes of all input+output vectors."""
        return (self.in_len + self.out_len) * self.batch * self.datatype.itemsize

    @property
    def total_bytes(self) -> int:
        """Total HBM traffic of one well-behaved execution."""
        return self.matrix_bytes + self.vector_bytes

    @property
    def is_short_wide(self) -> bool:
        """True when each matrix is short and wide (m < n)."""
        return self.m < self.n

    def describe(self) -> str:
        """Human-readable problem summary for error messages and logs."""
        return (
            f"{self.datatype.function_name}[{self.operation.value}] "
            f"{self.m}x{self.n} batch={self.batch}"
        )


@dataclass(frozen=True)
class GemmProblem:
    """One strided-batched multi-RHS GEMM problem: ``C_i = op(A_i) @ B_i``.

    ``m``/``n`` are the dimensions of each (untransposed) matrix ``A_i``
    and ``k`` is the number of right-hand-side columns; FFTMatvec's
    blocked Phase 3 uses ``m = Nd``, ``n = local Nm``, ``k`` = block
    width and batch ``Nt + 1``.  With ``k = 1`` this degenerates to the
    :class:`GemvProblem` the SBGEMV kernels handle.
    """

    m: int
    n: int
    k: int
    batch: int
    datatype: BlasDatatype
    operation: Operation

    def __post_init__(self) -> None:
        check_positive_int(self.m, "m")
        check_positive_int(self.n, "n")
        check_positive_int(self.k, "k")
        check_positive_int(self.batch, "batch")
        if self.operation is Operation.C and not self.datatype.is_complex:
            raise ReproError(
                "conjugate transpose is only meaningful for complex datatypes;"
                " use Operation.T for real"
            )

    @property
    def out_rows(self) -> int:
        """Rows of each output panel C_i (= rows of op(A_i))."""
        return self.n if self.operation.is_transposed else self.m

    @property
    def in_rows(self) -> int:
        """Rows of each input panel B_i (= cols of op(A_i))."""
        return self.m if self.operation.is_transposed else self.n

    @property
    def matrix_bytes(self) -> int:
        """Bytes of all batched matrices — read once, not once per RHS."""
        return self.m * self.n * self.batch * self.datatype.itemsize

    @property
    def panel_bytes(self) -> int:
        """Bytes of all input+output RHS panels."""
        return (self.in_rows + self.out_rows) * self.k * self.batch * self.datatype.itemsize

    @property
    def total_bytes(self) -> int:
        """Total HBM traffic of one well-behaved execution."""
        return self.matrix_bytes + self.panel_bytes

    @property
    def is_short_wide(self) -> bool:
        """True when each matrix is short and wide (m < n)."""
        return self.m < self.n

    def describe(self) -> str:
        """Human-readable problem summary for error messages and logs."""
        return (
            f"rocblas_{self.datatype.value}gemm_strided_batched"
            f"[{self.operation.value}] {self.m}x{self.n} k={self.k} "
            f"batch={self.batch}"
        )
