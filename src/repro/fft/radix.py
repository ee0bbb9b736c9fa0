"""From-scratch FFT implementations: iterative radix-2 and Bluestein.

These serve as an independent double-precision reference for the
pocketfft-backed plans (tests cross-check all three against each other
and against the DFT matrix).

The implementations are vectorized over a batch axis: inputs are
``(batch, n)`` arrays and all butterflies are NumPy slice operations (no
Python loop over the batch or over butterflies within a stage).

Kept by ``benchmarks/test_micro.py``: the independent FFT reference.
"""

from __future__ import annotations

import math

import numpy as np

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


def _as_batch(x: np.ndarray):
    a = np.asarray(x)
    squeeze = a.ndim == 1
    if squeeze:
        a = a[None, :]
    if a.ndim != 2:
        raise ReproError(f"expected 1-D or 2-D input, got ndim={a.ndim}")
    return np.ascontiguousarray(a, dtype=np.complex128), squeeze


def fft_radix2(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Iterative decimation-in-time radix-2 FFT in double precision.

    Unnormalized in both directions (inverse returns ``n`` times the
    mathematical inverse), matching the cuFFT convention used throughout
    this library.
    """
    a, squeeze = _as_batch(x)
    n = a.shape[1]
    if not _is_pow2(n):
        raise ReproError(f"radix-2 FFT needs a power-of-two length, got {n}")

    out = a[:, bit_reverse_permutation(n)].copy()
    sign = 1.0 if inverse else -1.0
    length = 2
    while length <= n:
        half = length // 2
        k = np.arange(half)
        tw = np.exp(sign * 2j * np.pi * k / length)
        view = out.reshape(out.shape[0], n // length, length)
        even = view[:, :, :half]
        odd = view[:, :, half:] * tw  # broadcast over batch and groups
        upper = even + odd
        lower = even - odd
        view[:, :, :half] = upper
        view[:, :, half:] = lower
        length *= 2
    return out[0] if squeeze else out


def ifft_radix2(x: np.ndarray) -> np.ndarray:
    """Unnormalized inverse radix-2 FFT (``n`` times the true inverse)."""
    return fft_radix2(x, inverse=True)


def fft_bluestein(x: np.ndarray) -> np.ndarray:
    """Bluestein's chirp-z forward FFT for arbitrary lengths.

    Re-expresses a length-``n`` DFT as a circular convolution of length
    ``m >= 2n-1`` (next power of two), evaluated with the radix-2 FFT.
    Unnormalized like :func:`fft_radix2`.
    """
    a, squeeze = _as_batch(x)
    n = a.shape[1]
    if n == 1:
        return a[0].copy() if squeeze else a.copy()

    k = np.arange(n, dtype=np.float64)
    # chirp_j = exp(-i*pi * j^2 / n), with the j^2 mod 2n reduction for
    # accuracy.  X_k = chirp_k * sum_j (x_j chirp_j) conj(chirp)_{k-j}.
    chirp = np.exp(-1j * np.pi * (k * k % (2 * n)) / n)

    m = 1 << (2 * n - 1).bit_length()
    A = np.zeros((a.shape[0], m), dtype=np.complex128)
    A[:, :n] = a * chirp

    B = np.zeros(m, dtype=np.complex128)
    B[:n] = np.conj(chirp)
    B[m - n + 1 :] = np.conj(chirp[1:][::-1])

    fa = fft_radix2(A)
    fb = fft_radix2(B)
    conv = ifft_radix2(fa * fb)
    out = (conv[:, :n] * (1.0 / m)) * chirp
    return out[0] if squeeze else out


def fft_auto(x: np.ndarray) -> np.ndarray:
    """Forward FFT: radix-2 for power-of-two lengths, Bluestein otherwise."""
    n = np.asarray(x).shape[-1]
    if _is_pow2(n):
        return fft_radix2(x)
    return fft_bluestein(x)
