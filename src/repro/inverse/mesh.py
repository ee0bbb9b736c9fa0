"""Structured grids for the LTI PDE substrate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import ReproError, check_positive_int

__all__ = ["Grid1D"]


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-D grid on [0, length] with n interior-inclusive points."""

    n: int
    length: float = 1.0

    def __post_init__(self) -> None:
        check_positive_int(self.n, "n")
        if self.length <= 0:
            raise ReproError(f"length must be positive, got {self.length}")

    @property
    def h(self) -> float:
        """Grid spacing."""
        return self.length / (self.n + 1)

    @property
    def points(self) -> np.ndarray:
        """Interior point coordinates (homogeneous Dirichlet boundaries)."""
        return np.linspace(self.h, self.length - self.h, self.n)

    def nearest_index(self, x: float) -> int:
        """Index of the grid point nearest to coordinate x."""
        if not (0.0 <= x <= self.length):
            raise ReproError(f"x={x} outside [0, {self.length}]")
        return int(np.argmin(np.abs(self.points - x)))
