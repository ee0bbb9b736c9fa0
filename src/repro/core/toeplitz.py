"""Block lower-triangular Toeplitz matrices.

The discrete p2o map of an LTI system is block lower-triangular Toeplitz
(paper Section 2.3): an ``Nt x Nt`` grid of ``Nd x Nm`` blocks where
block ``(i, j)`` equals ``F_{i-j}`` for ``i >= j`` and zero above the
diagonal.  Only the first block column ``F_0 .. F_{Nt-1}`` is stored.

This module holds the *matrix object* and the O(Nt^2) dense/reference
operations used to validate the FFT engine; the fast path lives in
:mod:`repro.core.matvec`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.util.validation import ReproError, check_array, check_positive_int

__all__ = ["BlockTriangularToeplitz", "spectral_condition_number"]


def spectral_condition_number(spec: np.ndarray) -> float:
    """max over frequencies of sigma_max(F_hat_k) / min sigma_min of a
    ``(n_freq, Nd, Nm)`` spectrum.  Scale-invariant, so the engine's
    spectrum (normalization folded in) gives the unscaled one's value."""
    # A frequency at a time: no transient the size of the spectrum.
    s = [np.linalg.svd(f, compute_uv=False) for f in spec]  # descending
    smin = min(float(v[-1]) for v in s)
    return np.inf if smin == 0.0 else max(float(v[0]) for v in s) / smin


class BlockTriangularToeplitz:
    """A block lower-triangular Toeplitz matrix.

    Parameters
    ----------
    blocks:
        Array of shape ``(Nt, Nd, Nm)``: the first block column,
        ``blocks[t] = F_t`` (the impulse response at lag ``t``).

    Notes
    -----
    The matrix it represents has shape ``(Nt*Nd, Nt*Nm)``.  Vectors are
    handled in *time-outer* block layout: parameter vectors are
    ``(Nt, Nm)`` arrays (row ``j`` = ``m_j``), data vectors ``(Nt, Nd)``.
    """

    def __init__(self, blocks: np.ndarray) -> None:
        b = check_array(blocks, "blocks", ndim=3)
        if not np.isrealobj(b):
            raise ReproError("kernel blocks must be real (the p2o map is real)")
        self.blocks = np.ascontiguousarray(b, dtype=np.float64)
        self.nt, self.nd, self.nm = self.blocks.shape

    # -- constructors -------------------------------------------------------
    @classmethod
    def random(
        cls,
        nt: int,
        nd: int,
        nm: int,
        rng: Optional[np.random.Generator] = None,
        decay: float = 0.0,
    ) -> "BlockTriangularToeplitz":
        """Random kernel; ``decay > 0`` damps later lags like a stable LTI
        system's impulse response (``exp(-decay * t)``)."""
        check_positive_int(nt, "nt")
        check_positive_int(nd, "nd")
        check_positive_int(nm, "nm")
        rng = rng if rng is not None else np.random.default_rng()
        blocks = rng.standard_normal((nt, nd, nm))
        if decay > 0:
            blocks *= np.exp(-decay * np.arange(nt))[:, None, None]
        return cls(blocks)

    # -- shapes -----------------------------------------------------------
    @property
    def shape(self):
        """Shape of the dense matrix: (Nt*Nd, Nt*Nm)."""
        return (self.nt * self.nd, self.nt * self.nm)

    @property
    def storage_bytes(self) -> int:
        """Bytes stored (first block column only)."""
        return self.blocks.nbytes

    @property
    def dense_bytes(self) -> int:
        """Bytes a dense representation would need (for the docs/examples)."""
        return self.shape[0] * self.shape[1] * self.blocks.itemsize

    # -- layout helpers -------------------------------------------------------
    def check_input(self, m: np.ndarray) -> np.ndarray:
        """Validate/reshape a parameter vector to (Nt, Nm)."""
        a = np.asarray(m)
        if a.ndim == 1:
            if a.size != self.nt * self.nm:
                raise ReproError(
                    f"flat parameter vector must have {self.nt * self.nm} "
                    f"entries, got {a.size}"
                )
            a = a.reshape(self.nt, self.nm)
        if a.shape != (self.nt, self.nm):
            raise ReproError(
                f"parameter vector must be ({self.nt}, {self.nm}), got {a.shape}"
            )
        return a

    def check_output(self, d: np.ndarray) -> np.ndarray:
        """Validate/reshape a data vector to (Nt, Nd)."""
        a = np.asarray(d)
        if a.ndim == 1:
            if a.size != self.nt * self.nd:
                raise ReproError(
                    f"flat data vector must have {self.nt * self.nd} entries,"
                    f" got {a.size}"
                )
            a = a.reshape(self.nt, self.nd)
        if a.shape != (self.nt, self.nd):
            raise ReproError(
                f"data vector must be ({self.nt}, {self.nd}), got {a.shape}"
            )
        return a

    # -- reference (O(Nt^2)) operations ----------------------------------------
    def dense(self) -> np.ndarray:
        """Materialize the full (Nt*Nd, Nt*Nm) matrix.  Small sizes only."""
        nt, nd, nm = self.nt, self.nd, self.nm
        out = np.zeros((nt * nd, nt * nm))
        for i in range(nt):
            for j in range(i + 1):
                out[i * nd : (i + 1) * nd, j * nm : (j + 1) * nm] = self.blocks[i - j]
        return out

    def matvec_reference(self, m: np.ndarray) -> np.ndarray:
        """Direct block convolution d_i = sum_{j<=i} F_{i-j} m_j."""
        mm = self.check_input(m).astype(np.float64, copy=False)
        # Every row is fully assigned by the einsum below; empty suffices.
        out = np.empty((self.nt, self.nd))
        for i in range(self.nt):
            # d_i = sum_t F_t m_{i-t}
            lags = self.blocks[: i + 1]  # (i+1, Nd, Nm)
            hist = mm[i::-1]  # m_i, m_{i-1}, ..., m_0
            out[i] = np.einsum("tdn,tn->d", lags, hist)
        return out

    def rmatvec_reference(self, d: np.ndarray) -> np.ndarray:
        """Direct adjoint m_j = sum_{i>=j} F_{i-j}^T d_i."""
        dd = self.check_output(d).astype(np.float64, copy=False)
        # Every row is fully assigned by the einsum below; empty suffices.
        out = np.empty((self.nt, self.nm))
        for j in range(self.nt):
            lags = self.blocks[: self.nt - j]  # F_0 .. F_{Nt-1-j}
            future = dd[j:]  # d_j .. d_{Nt-1}
            out[j] = np.einsum("tdn,td->n", lags, future)
        return out

    # -- circulant embedding -----------------------------------------------------
    def padded_kernel(self) -> np.ndarray:
        """Zero-padded kernel of the circulant embedding: (2*Nt, Nd, Nm).

        The block circulant matrix with this first block column agrees
        with ``F`` on the leading (Nt, Nt) block window.
        """
        padded = np.zeros((2 * self.nt, self.nd, self.nm))
        padded[: self.nt] = self.blocks
        return padded

    def spectrum(self) -> np.ndarray:
        """DFT of the padded kernel along lags: shape (Nt+1, Nd, Nm).

        Real input, so the half spectrum suffices (rfft).  This is the
        ``F_hat`` the engine precomputes in double precision at setup.
        The engine folds the 1/(2*Nt) inverse-FFT normalization into it;
        this accessor returns the *unscaled* spectrum.
        """
        return np.fft.rfft(self.padded_kernel(), axis=0)

    def condition_number_hat(self) -> float:
        """The kappa(F_hat) of the paper's Eq. (6), from a fresh spectrum
        (an engine keeps the value of the spectrum it holds)."""
        return spectral_condition_number(self.spectrum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BlockTriangularToeplitz(Nt={self.nt}, Nd={self.nd}, Nm={self.nm})"
        )
