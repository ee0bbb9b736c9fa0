"""Precision lattice and dtype utilities.

The paper's mixed-precision framework assigns each of the five matvec
phases a compute precision of single (FP32) or double (FP64).  This module
defines the :class:`Precision` enum, the mapping between precisions and
NumPy real/complex dtypes, machine epsilons, and helpers used throughout
the matvec engine:

* :func:`lowest` implements the lattice used to pick the
  precision of memory operations between two compute phases (the paper
  performs padding/unpadding/reordering "in the lowest possible precision
  among the compute precisions of adjacent phases").
* :func:`fill_low_mantissa` reproduces the paper's test-vector
  initialization: mantissa bits below double's 52-bit field but above
  single's 23-bit field are forced to one so that casting to FP32 always
  incurs representable error (Section 4.2.1: "setting mantissa bits in
  positions greater than 23 to one").
"""

from __future__ import annotations

import enum
from typing import Union

import numpy as np

__all__ = [
    "Precision",
    "real_dtype",
    "complex_dtype",
    "machine_eps",
    "lowest",
    "fill_low_mantissa",
]


class Precision(enum.Enum):
    """Compute precision of a phase: single (FP32) or double (FP64)."""

    SINGLE = "s"
    DOUBLE = "d"

    @classmethod
    def parse(cls, token: Union[str, "Precision"]) -> "Precision":
        """Parse ``'s'``/``'d'`` (or ``'single'``/``'double'``) tokens."""
        if isinstance(token, Precision):
            return token
        t = str(token).strip().lower()
        if t in ("s", "single", "fp32", "float32", "f32"):
            return cls.SINGLE
        if t in ("d", "double", "fp64", "float64", "f64"):
            return cls.DOUBLE
        raise ValueError(f"unknown precision token {token!r}")

    @property
    def char(self) -> str:
        return self.value

    def __lt__(self, other: "Precision") -> bool:
        # SINGLE < DOUBLE in the precision lattice.
        order = {Precision.SINGLE: 0, Precision.DOUBLE: 1}
        return order[self] < order[other]

    def __le__(self, other: "Precision") -> bool:
        return self == other or self < other


_REAL = {Precision.SINGLE: np.dtype(np.float32), Precision.DOUBLE: np.dtype(np.float64)}
_COMPLEX = {Precision.SINGLE: np.dtype(np.complex64), Precision.DOUBLE: np.dtype(np.complex128)}
_F64, _C128 = _REAL[Precision.DOUBLE], _COMPLEX[Precision.DOUBLE]
_EPS = {
    Precision.SINGLE: float(np.finfo(np.float32).eps),
    Precision.DOUBLE: float(np.finfo(np.float64).eps),
}


def real_dtype(prec: Precision) -> np.dtype:
    """Real NumPy dtype for a precision (float32 or float64)."""
    # Identity first: an enum member hashes through Python-level code.
    if prec is Precision.DOUBLE:
        return _F64
    return _REAL[Precision.parse(prec)]


def complex_dtype(prec: Precision) -> np.dtype:
    """Complex NumPy dtype for a precision (complex64 or complex128)."""
    if prec is Precision.DOUBLE:
        return _C128
    return _COMPLEX[Precision.parse(prec)]


def machine_eps(prec: Precision) -> float:
    """Unit roundoff for the precision (~1.19e-7 single, ~2.22e-16 double)."""
    return _EPS[Precision.parse(prec)]


def lowest(a: Precision, b: Precision) -> Precision:
    """Lower of two precisions (memory ops run at the lower neighbour)."""
    a, b = Precision.parse(a), Precision.parse(b)
    return a if a <= b else b


def fill_low_mantissa(arr: np.ndarray) -> np.ndarray:
    """Make float64 values maximally unrepresentable in float32 (a copy).

    This reproduces the paper's initialization trick (Section 4.2.1): the
    resulting doubles are *not* exactly representable in float32, so any
    phase computed in single precision incurs genuine rounding error.
    Without it, phases that only move memory (broadcast, padding) would
    show zero error in single precision and bias the Pareto analysis.

    Bits 29..51 of the mantissa (the ones float32 retains) are left
    as-is; the discarded low field is set to exactly half a float32 ulp.
    Zeros, subnormals, infs and NaNs are left untouched to keep the
    value's magnitude.
    """
    a = np.ascontiguousarray(arr, dtype=np.float64).copy()
    bits = a.view(np.uint64)
    # Only normal numbers: for subnormals the low mantissa bits ARE the
    # value and filling them would change it arbitrarily.
    normal = np.isfinite(a) & (np.abs(a) >= np.finfo(np.float64).tiny)
    # float64 mantissa occupies bits 0..51; float32 keeps the top 23 of
    # those (bits 29..51).  Set the discarded field to exactly half a
    # float32 ulp (bit 28 set, bits below cleared): the value then sits
    # maximally far (2^-24 relative) from every float32, so any phase
    # that rounds to single precision commits a full half-ulp error.
    # (Setting *all* low bits to one would leave the value only one
    # double-ulp below a representable float32 — nearly free to round.)
    low_mask = np.uint64((1 << 29) - 1)
    half_ulp32 = np.uint64(1 << 28)
    bits[normal] = (bits[normal] & ~low_mask) | half_ulp32
    return bits.view(np.float64)
