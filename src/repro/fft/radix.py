"""From-scratch FFT implementations: iterative radix-2 and Bluestein.

These serve as an independent reference for the pocketfft-backed plans
(tests cross-check all three against each other and against the DFT
matrix) and as an instrument for studying per-precision rounding: all
arithmetic is carried out in the requested precision, including twiddle
factors, so the observed error growth follows the Van Loan
``O(eps * log2 n)`` bound that the paper's Eq. (6) uses.

The implementations are vectorized over a batch axis: inputs are
``(batch, n)`` arrays and all butterflies are NumPy slice operations (no
Python loop over the batch or over butterflies within a stage).

Kept by ``benchmarks/test_micro.py``: the independent FFT reference, and the
measured side of Eq. (6)'s ``eps * log2 n`` term.
"""

from __future__ import annotations

import math

import numpy as np

from repro.util.dtypes import Precision, complex_dtype
from repro.util.validation import ReproError

__all__ = ["fft_radix2", "ifft_radix2", "fft_bluestein", "fft_auto", "bit_reverse_permutation"]


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def bit_reverse_permutation(n: int) -> np.ndarray:
    """Index permutation that bit-reverses ``log2(n)``-bit indices."""
    if not _is_pow2(n):
        raise ReproError(f"bit reversal needs a power-of-two length, got {n}")
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros_like(idx)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev


def _as_batch(x: np.ndarray, cdt: np.dtype):
    a = np.asarray(x)
    squeeze = a.ndim == 1
    if squeeze:
        a = a[None, :]
    if a.ndim != 2:
        raise ReproError(f"expected 1-D or 2-D input, got ndim={a.ndim}")
    return np.ascontiguousarray(a, dtype=cdt), squeeze


def fft_radix2(
    x: np.ndarray,
    precision: Precision = Precision.DOUBLE,
    inverse: bool = False,
) -> np.ndarray:
    """Iterative decimation-in-time radix-2 FFT in the given precision.

    Unnormalized in both directions (inverse returns ``n`` times the
    mathematical inverse), matching the cuFFT convention used throughout
    this library.
    """
    cdt = complex_dtype(precision)
    a, squeeze = _as_batch(x, cdt)
    n = a.shape[1]
    if not _is_pow2(n):
        raise ReproError(f"radix-2 FFT needs a power-of-two length, got {n}")

    out = a[:, bit_reverse_permutation(n)].copy()
    sign = 1.0 if inverse else -1.0
    length = 2
    while length <= n:
        half = length // 2
        # Twiddles computed in the working precision — this is what makes
        # the single-precision error model realistic.
        k = np.arange(half)
        tw = np.exp(sign * 2j * np.pi * k / length).astype(cdt)
        view = out.reshape(out.shape[0], n // length, length)
        even = view[:, :, :half]
        odd = view[:, :, half:] * tw  # broadcast over batch and groups
        upper = even + odd
        lower = even - odd
        view[:, :, :half] = upper
        view[:, :, half:] = lower
        length *= 2
    return out[0] if squeeze else out


def ifft_radix2(x: np.ndarray, precision: Precision = Precision.DOUBLE) -> np.ndarray:
    """Unnormalized inverse radix-2 FFT (``n`` times the true inverse)."""
    return fft_radix2(x, precision=precision, inverse=True)


def fft_bluestein(
    x: np.ndarray,
    precision: Precision = Precision.DOUBLE,
    inverse: bool = False,
) -> np.ndarray:
    """Bluestein's chirp-z FFT for arbitrary lengths.

    Re-expresses a length-``n`` DFT as a circular convolution of length
    ``m >= 2n-1`` (next power of two), evaluated with the radix-2 FFT in
    the same precision.  Unnormalized like :func:`fft_radix2`.
    """
    cdt = complex_dtype(precision)
    a, squeeze = _as_batch(x, cdt)
    n = a.shape[1]
    if n == 1:
        return a[0].copy() if squeeze else a.copy()

    sign = 1.0 if inverse else -1.0
    k = np.arange(n, dtype=np.float64)
    # chirp_j = exp(sign * i*pi * j^2 / n), computed in double with the
    # j^2 mod 2n reduction for accuracy, then rounded once to working
    # precision.  X_k = chirp_k * sum_j (x_j chirp_j) conj(chirp)_{k-j}.
    chirp = np.exp(sign * 1j * np.pi * (k * k % (2 * n)) / n).astype(cdt)

    m = 1 << (2 * n - 1).bit_length()
    A = np.zeros((a.shape[0], m), dtype=cdt)
    A[:, :n] = a * chirp

    B = np.zeros(m, dtype=cdt)
    B[:n] = np.conj(chirp)
    B[m - n + 1 :] = np.conj(chirp[1:][::-1])

    fa = fft_radix2(A, precision=precision)
    fb = fft_radix2(B, precision=precision)
    conv = ifft_radix2(fa * fb, precision=precision)
    scale = np.asarray(1.0 / m, dtype=cdt)
    out = (conv[:, :n] * scale) * chirp
    return out[0] if squeeze else out


def fft_auto(
    x: np.ndarray,
    precision: Precision = Precision.DOUBLE,
    inverse: bool = False,
) -> np.ndarray:
    """Dispatch to radix-2 for power-of-two lengths, Bluestein otherwise."""
    n = np.asarray(x).shape[-1]
    if _is_pow2(n):
        return fft_radix2(x, precision=precision, inverse=inverse)
    return fft_bluestein(x, precision=precision, inverse=inverse)
