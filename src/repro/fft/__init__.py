"""Batched FFT substrate (cuFFT/hipFFT work-alike).

FFTMatvec's Phases 2 and 4 are batched 1-D FFTs/IFFTs over the zero-padded
block vectors.  This package provides:

* :mod:`repro.fft.plan` — :class:`FFTPlan`, a plan-based batched strided
  API mirroring ``cufftPlanMany``/``hipfftPlanMany``, executing through
  NumPy's pocketfft at the plan's precision (complex64 computations are
  genuinely single precision, so mixed-precision FFT *error* is real) and
  charging simulated time on an attached device.
* :mod:`repro.fft.radix` — a from-scratch iterative radix-2 Cooley-Tukey
  FFT plus Bluestein's algorithm for arbitrary lengths; used as an
  independent reference in tests and for the per-precision rounding
  behaviour studies.

The FFT rounding-error term of Eq. (6) lives in
:mod:`repro.core.error_model`.
"""

from repro.fft.plan import FFTPlan, FFTType
from repro.fft.radix import fft_radix2, ifft_radix2, fft_bluestein, fft_auto

__all__ = [
    "FFTPlan",
    "FFTType",
    "fft_radix2",
    "ifft_radix2",
    "fft_bluestein",
    "fft_auto",
]
