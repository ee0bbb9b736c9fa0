"""Chunking helpers for the blocked multi-RHS paths.

Every blocked consumer — the grid engine, dense-operator assembly, the
overlapped pipeline — bounds its per-pass workspace by splitting ``k``
right-hand sides into chunks of at most ``max_block_k`` columns.  The
contract all of them share: chunks are contiguous, ordered, cover
``range(k)`` exactly once, and there are ``ceil(k / max_block_k)`` of
them — which is also the number of collectives / pipeline passes the
chunked path performs.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.util.validation import ReproError, check_positive_int

__all__ = [
    "chunk_ranges",
    "validate_max_block_k",
    "check_block",
    "check_out_buffer",
]


def check_out_buffer(out, shape: tuple, what: str = "out"):
    """Validate a caller-supplied output buffer, or pass through ``None``.

    The single definition of the ``out=`` contract shared by the
    single-device and grid engines: exact ``shape``, float64,
    C-contiguous, writeable.
    """
    if out is None:
        return None
    if out.shape != tuple(shape) or out.dtype != np.float64:
        raise ReproError(
            f"{what} buffer must be {tuple(shape)} float64, "
            f"got {out.shape} {out.dtype}"
        )
    if not out.flags["C_CONTIGUOUS"] or not out.flags["WRITEABLE"]:
        raise ReproError(f"{what} buffer must be C-contiguous and writeable")
    return out


def check_block(V, nt: int, nx: int, what: str) -> np.ndarray:
    """Validate/reshape a multi-RHS block to ``(nt, nx, k)`` float64.

    Accepts the native ``(nt, nx, k)`` layout or scipy-style
    ``(nt*nx, k)`` stacked flat vectors.  The single definition of the
    block-input contract shared by the single-device and grid engines.
    """
    a = np.asarray(V)
    if a.ndim == 2:
        if a.shape[0] != nt * nx:
            raise ReproError(
                f"{what} block matrix must have {nt * nx} rows "
                f"(= Nt * {nx}), got {a.shape[0]}"
            )
        a = a.reshape(nt, nx, a.shape[1])
    if a.ndim != 3 or a.shape[:2] != (nt, nx):
        raise ReproError(
            f"{what} block must be ({nt}, {nx}, k) or "
            f"({nt * nx}, k), got {np.asarray(V).shape}"
        )
    return a.astype(np.float64, copy=False)


def chunk_ranges(k: int, max_block_k: Optional[int] = None) -> List[Tuple[int, int]]:
    """Contiguous ``(start, stop)`` column ranges covering ``range(k)``.

    ``max_block_k=None`` means unbounded: one chunk with all k columns.

    >>> chunk_ranges(10, 4)
    [(0, 4), (4, 8), (8, 10)]
    >>> chunk_ranges(10)
    [(0, 10)]
    >>> chunk_ranges(3, 8)  # cap above k: still one chunk
    [(0, 3)]
    """
    check_positive_int(k, "k")
    if max_block_k is None:
        return [(0, k)]
    check_positive_int(max_block_k, "max_block_k")
    return [(j, min(j + max_block_k, k)) for j in range(0, k, max_block_k)]


def validate_max_block_k(max_block_k: Optional[int]) -> Optional[int]:
    """Validate a chunk-size knob (None = unbounded).

    >>> validate_max_block_k(4)
    4
    >>> validate_max_block_k(None) is None
    True
    """
    if max_block_k is None:
        return None
    if int(max_block_k) != max_block_k or max_block_k < 1:
        raise ReproError(f"max_block_k must be a positive int or None, got {max_block_k}")
    return int(max_block_k)
