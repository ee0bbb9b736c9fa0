"""Argument-validation helpers shared across the library.

The substrates raise :class:`ReproError` (or its subclasses) for
user-facing misuse so callers can distinguish library errors from NumPy
internals.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = [
    "ReproError",
    "UnsupportedError",
    "check_positive_int",
    "check_array",
]


class ReproError(Exception):
    """Base class for user-facing errors raised by the repro library."""


class UnsupportedError(ReproError):
    """A requested functionality has no (simulated) backend support.

    Mirrors the "Not Supported" errors that hipify raises for CUDA
    features lacking a HIP counterpart.
    """


def check_positive_int(value, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it as int."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ReproError(f"{name} must be a positive integer, got {value!r}")
    v = int(value)
    if v <= 0:
        raise ReproError(f"{name} must be positive, got {v}")
    return v


def check_array(
    arr,
    name: str,
    *,
    ndim: Optional[int] = None,
    shape: Optional[Sequence[Optional[int]]] = None,
    dtypes: Optional[Sequence] = None,
) -> np.ndarray:
    """Validate an ndarray's rank/shape/dtype; returns ``np.asarray(arr)``.

    ``shape`` entries of ``None`` are wildcards.
    """
    a = np.asarray(arr)
    if ndim is not None and a.ndim != ndim:
        raise ReproError(f"{name} must have ndim={ndim}, got ndim={a.ndim}")
    if shape is not None:
        if a.ndim != len(shape):
            raise ReproError(
                f"{name} must have shape {tuple(shape)}, got {a.shape}"
            )
        for i, (want, have) in enumerate(zip(shape, a.shape)):
            if want is not None and want != have:
                raise ReproError(
                    f"{name} axis {i} must have length {want}, got {have}"
                )
    if dtypes is not None:
        allowed = {np.dtype(d) for d in dtypes}
        if a.dtype not in allowed:
            raise ReproError(
                f"{name} dtype must be one of {sorted(str(d) for d in allowed)},"
                f" got {a.dtype}"
            )
    return a
