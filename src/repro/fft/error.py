"""FFT rounding-error bounds (Van Loan 1992), used by the Eq. (6) model.

The paper's error analysis (Section 3.2.1) uses the standard result that
a length-``n`` FFT computed with unit roundoff ``eps`` satisfies::

    || fl(FFT(v)) - FFT(v) || <= c * eps * log2(n) * ||FFT(v)||

and that the FFT operator's 2-norm is ``sqrt(n)`` (inverse ``1/sqrt(n)``
for the normalized inverse).  These helpers package those facts so the
error model and the tests share one definition.

Kept by ``tests/fft/test_error.py``: the Van Loan facts Eq. (6) cites (Sec.
3.2.1), checked against measured FFT error; no model imports them yet.
"""

from __future__ import annotations

import math

from repro.util.dtypes import Precision, machine_eps

__all__ = ["fft_operator_norm", "ifft_operator_norm", "fft_error_bound"]

# Algorithm-dependent O(1) constant; Van Loan gives small constants (~4-8
# depending on the variant). We keep one conservative value shared by the
# model and the tests.
DEFAULT_FFT_CONSTANT = 8.0


def fft_operator_norm(n: int) -> float:
    """2-norm of the unnormalized DFT operator of length n: sqrt(n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.sqrt(float(n))


def ifft_operator_norm(n: int) -> float:
    """2-norm of the normalized inverse DFT operator: 1/sqrt(n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 1.0 / math.sqrt(float(n))


def fft_error_bound(
    n: int,
    precision: Precision,
    constant: float = DEFAULT_FFT_CONSTANT,
) -> float:
    """Relative error bound ``c * eps * log2(n)`` of a length-n FFT."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return 0.0
    return constant * machine_eps(precision) * math.log2(float(n))
