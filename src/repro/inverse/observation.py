"""Sensor observation operators (the B of paper Eq. 1).

A sensor reads the state at one grid point (optionally a local average
over a small stencil).  ``Nd << Nm`` because "each sensor installation
usually involves some sort of cost" (Section 3.1.1) — exactly the
short-and-wide regime the optimized SBGEMV kernel targets.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.util.validation import ReproError, check_positive_int

__all__ = ["ObservationOperator"]


class ObservationOperator:
    """Pointwise observation of the state.

    Parameters
    ----------
    n:
        State dimension.
    indices:
        Grid indices of the sensors (length Nd, unique).
    """

    def __init__(self, n: int, indices: Sequence[int]) -> None:
        check_positive_int(n, "n")
        idx = [int(i) for i in indices]
        if len(idx) == 0:
            raise ReproError("at least one sensor is required")
        if len(set(idx)) != len(idx):
            raise ReproError(f"sensor indices must be unique, got {idx}")
        for i in idx:
            if not (0 <= i < n):
                raise ReproError(f"sensor index {i} outside [0,{n})")
        self.n = n
        self.indices = tuple(idx)

    @property
    def nd(self) -> int:
        return len(self.indices)

    def matrix(self) -> np.ndarray:
        """Dense (Nd, n) observation matrix B."""
        B = np.zeros((self.nd, self.n))
        B[np.arange(self.nd), self.indices] = 1.0
        return B

    def observe(self, u: np.ndarray) -> np.ndarray:
        """Apply B to a state (n,) or a history (nt, n)."""
        a = np.asarray(u, dtype=np.float64)
        if a.ndim == 1:
            if a.shape[0] != self.n:
                raise ReproError(f"state must have {self.n} entries")
            return self.matrix() @ a
        if a.ndim == 2 and a.shape[1] == self.n:
            return a @ self.matrix().T
        raise ReproError(f"cannot observe array of shape {a.shape}")

    def adjoint(self, d: np.ndarray) -> np.ndarray:
        """Apply B^T to observations (Nd,) or histories (nt, Nd)."""
        a = np.asarray(d, dtype=np.float64)
        if a.ndim == 1:
            if a.shape[0] != self.nd:
                raise ReproError(f"observation must have {self.nd} entries")
            return self.matrix().T @ a
        if a.ndim == 2 and a.shape[1] == self.nd:
            return a @ self.matrix()
        raise ReproError(f"cannot adjoint-observe array of shape {a.shape}")
