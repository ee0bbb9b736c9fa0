"""Algorithm-based fault tolerance: checksums, energy checks, bit flips.

Silent data corruption (SDC) — a flipped bit in a device buffer or a
collective payload — produces a wrong answer with no signal, which at
thousand-GPU scale is the failure mode checkpoint/restart cannot see
(PR 9's :class:`~repro.comm.fault.FailureSchedule` handles the loud
fail-stop complement).  This module holds the *math* of the defense
layer; the engines call in from their hot paths:

* **Payload digests** — the wraparound ``uint64`` sum of the buffer's
  64-bit words, computed before a collective "sends" and re-verified on
  every received copy (:meth:`repro.comm.simcomm.SimCommunicator.bcast`
  / ``reduce`` / ``reduce_segments``).  Integer sums are exact, so a
  faithful copy always verifies; a flip of bit ``b`` moves one word by
  ``±2**b`` (never ``0 mod 2**64``), so every single-bit flip is caught.
* **GEMM column checksums** (Huang–Abraham ABFT) — for
  ``C = op(A) @ B``, the column sums of the output panel must equal the
  checksum row ``(e^T op(A)) @ B``.  The checksum row costs one extra
  GEMM row (``1/out_rows`` of the panel work); verification is one
  streaming read of ``C``.  :func:`verify_gemm_checksums` compares the
  two against a magnitude-aware tolerance — any single bit flip whose
  induced error exceeds the accumulated-rounding bound is detected.
* **Parseval energy checks** — an FFT preserves energy:
  ``sum(x^2) == weighted(|X|^2) / n`` for the rfft half-spectrum
  (DC/Nyquist bins weigh 1, interior bins 2).  The engine's inverse is
  *unnormalized* (``out = n * irfft_math(X)``), so the inverse identity
  is ``sum(out^2) == n * weighted(|X|^2)``.  Each sum of squares is one
  pass over its buffer, accumulated in float64 at every precision tier.
* **Bit flips** — :func:`flip_bit` is the seeded injector used by
  :class:`~repro.comm.fault.CorruptionSchedule`: it XORs one bit of one
  float (complex buffers are flipped in their real/imag view).  The
  default bit 62 (30 for single precision) is the exponent MSB, so the
  induced delta is never small: ``0 -> 2.0``, ``[1, 2) -> Inf/NaN``,
  ``x < 1`` -> a ``2^1023``-scale value, ``x >= 2`` -> a denormal-scale
  value (delta ``~ x``).  Every such flip sits far above the checksum
  tolerances at the repo's working precisions.

The typed errors live here too: :class:`SilentCorruption` (a check
fired — the buffer is wrong) and :class:`NumericalHealthError` (a
NaN/Inf where the data must be finite: an engine's pad output — the
caller's input — or unpad output under ``validate="abft"``, or a
request payload at :class:`~repro.serve.SolverService` submit).  The
pad output is checked before any algebraic check runs, so a non-finite
input is reported as bad input, never as corruption.
Both are re-exported from :mod:`repro.comm.fault` next to the
schedules that provoke them.

Everything operates on host numpy views (``np.asarray``) — this module
is deliberately *not* on the backend-lint paths, so the linted hot-path
modules delegate their checksum math here.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.util.validation import ReproError

__all__ = [
    "SilentCorruption",
    "NumericalHealthError",
    "payload_digest",
    "verify_payload",
    "table_digest",
    "verify_table",
    "flip_bit",
    "flip_table_bit",
    "gemm_checksum_abs_row",
    "gemm_checksum_scale",
    "verify_gemm_checksums",
    "half_spectrum_energy",
    "verify_forward_energy",
    "verify_inverse_energy",
    "ensure_finite",
    "energy_rtol",
    "gemm_rtol",
]


class SilentCorruption(ReproError):
    """A checksum/energy/payload check detected silent data corruption.

    Carries enough context to localize the fault: the ``check`` that
    fired (``"payload"``, ``"abft"``, ``"energy"``), the pipeline
    ``phase``, the ``rank`` whose buffer failed (None when unknown),
    and the ``chunk`` of a blocked apply — assigned by the catcher
    (:class:`~repro.core.elastic.ElasticEngine`) when the engine layer
    below it cannot know the chunk index.
    """

    def __init__(
        self,
        check: str,
        phase: str,
        rank: Optional[int] = None,
        chunk: Optional[int] = None,
        op: str = "",
        collective_index: Optional[int] = None,
        comm_name: str = "",
        detail: str = "",
    ) -> None:
        self.check = check
        self.phase = phase
        self.rank = rank
        self.chunk = chunk
        self.op = op
        self.collective_index = collective_index
        self.comm_name = comm_name
        self.detail = detail
        msg = f"silent data corruption: {check} check failed in phase {phase!r}"
        if rank is not None:
            msg += f" on rank {rank}"
        if op:
            msg += f" during {op!r}"
        if collective_index is not None:
            msg += f" (collective #{collective_index} on {comm_name or 'world'})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NumericalHealthError(ReproError):
    """A NaN/Inf where the data must be finite (see the module docstring).

    Names the ``phase`` whose output went non-finite (``"pad"``,
    ``"unpad"``, or ``"submit"`` for a request payload), plus the
    ``rank`` and ``chunk`` when the caller knows them.
    """

    def __init__(
        self,
        phase: str,
        rank: Optional[int] = None,
        chunk: Optional[int] = None,
        detail: str = "",
    ) -> None:
        self.phase = phase
        self.rank = rank
        self.chunk = chunk
        self.detail = detail
        msg = f"non-finite values at the {phase!r} phase boundary"
        if rank is not None:
            msg += f" on rank {rank}"
        if chunk is not None:
            msg += f" (chunk {chunk})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


# -- tolerances ---------------------------------------------------------------
def _real_eps(dtype) -> float:
    dt = np.dtype(dtype)
    if dt.kind == "c":
        dt = np.dtype(np.float32) if dt.itemsize == 8 else np.dtype(np.float64)
    return float(np.finfo(dt).eps)


def gemm_rtol(dtype, length: int) -> float:
    """Relative ABFT tolerance for a GEMM with contraction length ``length``.

    A generous multiple of the worst-case accumulated rounding of the
    contraction plus the checksum fold itself — loose enough that a
    clean vendor-order or pairwise-order GEMM can never trip it, tight
    enough that an exponent-bit flip always does at the repo's panel
    sizes.
    """
    return 64.0 * max(int(length), 16) * _real_eps(dtype)


def energy_rtol(dtype) -> float:
    """Relative Parseval tolerance per transform precision."""
    return 1e-4 if _real_eps(dtype) > 1e-10 else 1e-9


# -- payload digests ----------------------------------------------------------
def payload_digest(arr: Any) -> int:
    """Exact digest: the wraparound ``uint64`` sum of the buffer's words.

    A trailing 4-byte word (odd-length float32) is added on its own.
    Integer addition is associative, so a faithful copy verifies exactly
    at any address; a flip of bit ``b`` moves its word by ``±2**b``, so
    every single-bit flip is detected, Inf and NaN payloads included.
    """
    flat = np.ascontiguousarray(arr).reshape(-1)
    tail = flat.nbytes % 8
    if not tail:
        return int(np.add.reduce(flat.view(np.uint64), dtype=np.uint64))
    raw = flat.view(np.uint8)
    body = int(np.add.reduce(raw[:-tail].view(np.uint64), dtype=np.uint64))
    return (body + int.from_bytes(raw[-tail:].tobytes(), "little")) % 2**64


def verify_payload(
    arr: Any,
    digest: int,
    *,
    op: str,
    phase: str,
    rank: Optional[int] = None,
    collective_index: Optional[int] = None,
    comm_name: str = "",
) -> None:
    """Raise :class:`SilentCorruption` unless ``arr`` reproduces ``digest``."""
    got = payload_digest(arr)
    if got == digest:
        return
    raise SilentCorruption(
        check="payload",
        phase=phase,
        rank=rank,
        op=op,
        collective_index=collective_index,
        comm_name=comm_name,
        detail=f"digest {got:#018x} != sent {digest:#018x}",
    )


def table_digest(table: Dict[Tuple[int, int], Any]) -> Tuple:
    """Digest of a canonical-segment table (the pairwise reduce payload)."""
    return tuple((key, payload_digest(table[key])) for key in sorted(table))


def verify_table(
    table: Dict[Tuple[int, int], Any],
    digest: Tuple,
    *,
    op: str,
    phase: str,
    rank: Optional[int] = None,
    collective_index: Optional[int] = None,
    comm_name: str = "",
) -> None:
    """Per-segment payload verification of a rank's segment table."""
    for key, seg_digest in digest:
        got = payload_digest(table[key])
        if got == seg_digest:
            continue
        raise SilentCorruption(
            check="payload",
            phase=phase,
            rank=rank,
            op=op,
            collective_index=collective_index,
            comm_name=comm_name,
            detail=f"segment {key} digest {got:#018x} != sent {seg_digest:#018x}",
        )


# -- bit-flip injection -------------------------------------------------------
def _real_view(a: np.ndarray) -> np.ndarray:
    if a.dtype.kind == "c":
        return a.view(np.float32 if a.dtype.itemsize == 8 else np.float64)
    return a


_UINT = {4: np.uint32, 8: np.uint64}


def flip_bit(arr: Any, index: int, bit: int = 62) -> Tuple[int, float, float]:
    """Flip one bit of one float element of ``arr``, in place.

    Complex buffers are flipped in their real/imag float view; ``index``
    addresses that flat float view (modulo its size) and ``bit`` is
    clamped to the dtype's exponent MSB (62 for 8-byte floats, 30 for
    4-byte).  Returns ``(flat_index, old_value, new_value)`` for
    diagnostics.  The buffer must be C-contiguous — every injection
    site in the engines hands over a freshly produced contiguous
    buffer, and a silent copy here would discard the flip.
    """
    a = np.asarray(arr)
    if a.dtype.kind not in "fc":
        raise ReproError(f"flip_bit expects a float/complex buffer, got {a.dtype}")
    view = _real_view(a)
    if not view.flags["C_CONTIGUOUS"]:
        raise ReproError("flip_bit requires a C-contiguous buffer")
    flat = view.reshape(-1)
    if flat.shape[0] == 0:
        raise ReproError("flip_bit got an empty buffer")
    idx = int(index) % int(flat.shape[0])
    b = min(int(bit), view.dtype.itemsize * 8 - 2)
    old = float(flat[idx])
    u = flat[idx : idx + 1].view(_UINT[view.dtype.itemsize])
    u ^= _UINT[view.dtype.itemsize](1 << b)
    return idx, old, float(flat[idx])


def flip_table_bit(
    table: Dict[Tuple[int, int], Any], index: int, bit: int = 62
) -> Tuple[Tuple[int, int], int]:
    """Flip one bit in one segment of a canonical-segment table, in place.

    The segment is chosen deterministically from ``index`` (sorted key
    order), the element within it from the same index; returns the
    ``(segment_key, flat_index)`` hit.
    """
    keys = sorted(table.keys())
    if not keys:
        raise ReproError("flip_table_bit got an empty segment table")
    key = keys[int(index) % len(keys)]
    flat_idx, _, _ = flip_bit(table[key], index, bit=bit)
    return key, flat_idx


# -- GEMM column checksums (ABFT) ---------------------------------------------
def gemm_checksum_abs_row(opA: Any) -> np.ndarray:
    """``e^T |op(A)|`` in float64 — the matrix half of the ABFT yardstick.

    Depends on ``op(A)`` alone, so engines compute it once per operator
    next to the checksum row itself.
    """
    a = np.abs(np.asarray(opA)).astype(np.float64, copy=False)
    return np.sum(a, axis=-2, keepdims=True)


def gemm_checksum_scale(opA: Any, B: Any) -> np.ndarray:
    """Magnitude yardstick for the ABFT tolerance: ``(e^T |op(A)|) |B|``.

    The same contraction the checksum row performs, over absolute
    values — the natural bound on how much rounding the checksum
    comparison can legitimately accumulate.  A cached
    :func:`gemm_checksum_abs_row` may stand in for ``opA`` (a one-row
    non-negative matrix is its own abs row).
    """
    b = np.abs(np.asarray(B)).astype(np.float64, copy=False)
    return np.matmul(gemm_checksum_abs_row(opA), b)


def verify_gemm_checksums(
    expected: Any,
    got: Any,
    scale: Any,
    length: int,
    *,
    phase: str = "sbgemv",
    rank: Optional[int] = None,
    context: str = "",
    rtol: Optional[float] = None,
) -> None:
    """Compare a GEMM checksum row against the output panel's column sums.

    ``expected`` is ``(e^T op(A)) @ B``, ``got`` is ``e^T C``, ``scale``
    is the same contraction over magnitudes ``(e^T |op(A)|) @ |B|`` —
    the natural yardstick for accumulated rounding.  ``length`` is the
    contraction length (rows summed per output column *plus* the
    checksum fold).  NaN/Inf anywhere in the comparison counts as a
    failure (``diff <= tol`` is False for NaN), so a flip that poisons
    a column is detected even though its difference is not a number.
    """
    e = np.asarray(expected)
    g = np.asarray(got)
    s = np.abs(np.asarray(scale, dtype=np.float64))
    if rtol is None:
        rtol = gemm_rtol(e.dtype, length)
    tol = rtol * s + float(np.finfo(np.float64).tiny)
    # Inf-Inf / Inf*0 in a poisoned panel yield NaN diffs without
    # tripping numpy warnings; NaN then fails the <= below (detected).
    with np.errstate(over="ignore", invalid="ignore"):
        diff = np.abs(
            e.astype(np.complex128, copy=False)
            - g.astype(np.complex128, copy=False)
        )
    if bool(np.all(np.less_equal(diff, tol))):
        return
    bad = int(np.sum(~np.less_equal(diff, tol)))
    worst = float(np.nanmax(np.where(np.isfinite(diff), diff, np.inf)))
    raise SilentCorruption(
        check="abft",
        phase=phase,
        rank=rank,
        detail=(
            f"{bad} of {diff.size} column checksums off"
            f" (worst |delta| {worst:.3e}, rtol {rtol:.1e})"
            + (f" [{context}]" if context else "")
        ),
    )


# -- Parseval energy checks ---------------------------------------------------
def _sum_squares(a: Any) -> float:
    """``sum(|a|^2)``: one pass, no temporaries, float64 accumulation at
    every tier (float32 accumulation would eat the 1e-4 tolerance).
    Complex buffers are summed as (re, im) float pairs."""
    r = _real_view(np.ascontiguousarray(a)).reshape(-1)
    if r.dtype == np.float64:
        return float(np.dot(r, r))
    return float(np.einsum("i,i->", r, r, dtype=np.float64))


def half_spectrum_energy(X: Any, n: int) -> float:
    """Weighted power of an rfft half-spectrum of transform length ``n``.

    Interior bins appear twice in the full spectrum (Hermitian mirror),
    DC — and Nyquist when ``n`` is even — once; the weighted sum equals
    ``sum(|X_full|^2)`` of the implied full spectrum.
    """
    a = np.asarray(X)
    # Inf/NaN in a corrupted buffer: a non-finite energy, i.e. a detection.
    with np.errstate(over="ignore", invalid="ignore"):
        total = 2.0 * _sum_squares(a) - _sum_squares(a[..., 0])
        if n % 2 == 0:
            total -= _sum_squares(a[..., -1])
    return total


def _check_energy(
    a: float,
    b: float,
    rtol: float,
    *,
    phase: str,
    rank: Optional[int],
) -> None:
    # A non-finite energy is always a detection: clean transforms of
    # finite data cannot overflow the float64 energy sum, and letting an
    # Inf operand through would inflate the tolerance to Inf (making
    # ``Inf <= Inf`` pass for an overflowed corrupted buffer).
    if math.isfinite(a) and math.isfinite(b):
        tol = rtol * (max(abs(a), abs(b)) + float(np.finfo(np.float64).tiny))
        diff = abs(a - b)
        if diff <= tol:
            return
    else:
        diff = abs(a - b)
    raise SilentCorruption(
        check="energy",
        phase=phase,
        rank=rank,
        detail=(
            f"Parseval mismatch {a:.9e} vs {b:.9e}"
            f" (|delta| {diff:.3e}, rtol {rtol:.1e})"
        ),
    )


def verify_forward_energy(
    x: Any,
    X: Any,
    n: int,
    *,
    phase: str = "fft",
    rank: Optional[int] = None,
    rtol: Optional[float] = None,
) -> None:
    """Check ``sum(x^2) == weighted(|X|^2) / n`` for a forward rfft."""
    if rtol is None:
        rtol = energy_rtol(np.asarray(X).dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        tx = _sum_squares(x)
    _check_energy(
        tx,
        half_spectrum_energy(X, n) / float(n),
        rtol,
        phase=phase,
        rank=rank,
    )


def verify_inverse_energy(
    X: Any,
    out: Any,
    n: int,
    *,
    phase: str = "ifft",
    rank: Optional[int] = None,
    rtol: Optional[float] = None,
) -> None:
    """Check ``sum(out^2) == n * weighted(|X|^2)`` — the engine's inverse
    is unnormalized (``out = n * irfft_math(X)``), so the identity picks
    up a factor ``n^2 / n``."""
    if rtol is None:
        rtol = energy_rtol(np.asarray(X).dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        to = _sum_squares(out)
    _check_energy(
        half_spectrum_energy(X, n) * float(n),
        to,
        rtol,
        phase=phase,
        rank=rank,
    )


# -- finite checks ------------------------------------------------------------
def ensure_finite(
    arr: Any,
    *,
    phase: str,
    rank: Optional[int] = None,
    chunk: Optional[int] = None,
    what: str = "",
) -> None:
    """Raise :class:`NumericalHealthError` if ``arr`` holds NaN/Inf."""
    finite = np.isfinite(arr)
    if finite.all():
        return
    bad = int(finite.size - np.count_nonzero(finite))
    raise NumericalHealthError(
        phase=phase,
        rank=rank,
        chunk=chunk,
        detail=f"{bad} of {finite.size} values non-finite"
        + (f" in {what}" if what else ""),
    )
