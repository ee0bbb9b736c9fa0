"""The adjoint folds its conjugations into the slab passes.

``F* d`` runs Phase 3 as op T on a conjugated panel, ``conj(F_hat^T
conj(d_hat))``: the front conjugates each slab's FFT output in place, the
back each slab's reorder output, and no conjugated spectrum is held.
The contract:

* every F* is bitwise the held-conjugate formula, ``conj(F_hat)^T
  d_hat`` through the BLAS references with ``a_conj=np.conj(F_hat)``
  on unconjugated slabs (the reference pipeline below), over
  all 32 configs, vector / k = 3 block / deterministic block applies,
  fast and pairwise, on ``FFTMatvec`` (whole and slabbed on two
  threads), a 2x2 grid whose input parts share one front, the same grid
  armed (each rank runs its own front) and ``ElasticEngine``;
* a double adjoint holds one spectrum: after a ``ddddd`` F* only the
  complex128 spectrum and the arena stay, within one panel.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.blas.gemm_kernels import (
    gemm_strided_batched_reference,
    pairwise_gemm_strided_batched_reference,
    pairwise_segment_values,
)
from repro.blas.gemv_kernels import gemv_strided_batched_reference
from repro.blas.types import Operation
from repro.comm.grid import ProcessGrid
from repro.core import toeplitz
from repro.core.elastic import ElasticEngine
from repro.core.matvec import FFTMatvec
from repro.core.parallel import ParallelFFTMatvec
from repro.core.precision import PrecisionConfig
from repro.core.toeplitz import BlockTriangularToeplitz

CONFIGS = [c.code for c in PrecisionConfig.all_configs()]
SHAPE, K = (8, 6, 10), 3


def _held_conjugate(eng, rec):
    """The record's spectrum and the conjugate the formula holds."""
    fhat = eng.spectrum(rec.precision)
    return fhat, np.conj(fhat)


def _reference_pipeline(monkeypatch):
    """Turn the engine into the held-conjugate pipeline: no slab is
    conjugated, and each adjoint Phase-3 kernel (the records' op T) runs
    op C on the plain panel through the BLAS references, with
    ``a_conj=np.conj(F_hat)`` / ``x_conj``; the ABFT check follows with
    op C.  Forward applies run unchanged."""
    orig = {
        name: getattr(FFTMatvec, name)
        for name in (
            "_prepared", "_check_gemm", "_run_sbgemv", "_run_sbgemm",
            "_run_sbgemv_panel", "_run_sbgemm_pairwise_segments",
        )
    }

    def prepared(self, *args):
        rec = orig["_prepared"](self, *args)
        rec.adjoint = False  # the slab passes conjugate nothing
        return rec

    def check_gemm(self, panel, result, operation, precision):
        op = Operation.C if operation is Operation.T else operation
        return orig["_check_gemm"](self, panel, result, op, precision)

    def vector(self, panel, rec):
        if rec.operation is Operation.N:
            return orig["_run_sbgemv"](self, panel, rec)
        fhat, _ = _held_conjugate(self, rec)
        x = panel[:, :, 0]
        return gemv_strided_batched_reference(fhat, x, Operation.C, x_conj=np.conj(x))[:, :, None]

    def block(self, panel, rec):
        if rec.operation is Operation.N:
            return orig["_run_sbgemm"](self, panel, rec)
        fhat, a_conj = _held_conjugate(self, rec)
        kernel = (
            pairwise_gemm_strided_batched_reference
            if self.reduction == "pairwise"
            else gemm_strided_batched_reference
        )
        return kernel(fhat, panel, Operation.C, a_conj=a_conj)

    def columns(self, panel, rec):
        if rec.operation is Operation.N:
            return orig["_run_sbgemv_panel"](self, panel, rec)
        fhat, _ = _held_conjugate(self, rec)
        cols = [
            gemv_strided_batched_reference(
                fhat, panel[:, :, j].copy(), Operation.C, x_conj=np.conj(panel[:, :, j])
            )
            for j in range(panel.shape[2])
        ]
        return np.stack(cols, axis=2)

    def segments(self, panel, rec, start, n_global):
        if rec.operation is Operation.N:
            return orig["_run_sbgemm_pairwise_segments"](self, panel, rec, start, n_global)
        fhat, a_conj = _held_conjugate(self, rec)
        return pairwise_segment_values(fhat, panel, Operation.C, start, n_global, a_conj=a_conj)

    swaps = {
        "_prepared": prepared,
        "_check_gemm": check_gemm,
        "_run_sbgemv": vector,
        "_run_sbgemm": block,
        "_run_sbgemv_panel": columns,
        "_run_sbgemm_pairwise_segments": segments,
    }
    for name, fn in swaps.items():
        monkeypatch.setattr(FFTMatvec, name, fn)


def _build(kind, blocks, reduction):
    if kind == "grid-shared":
        return ParallelFFTMatvec(blocks, ProcessGrid(2, 2), max_block_k=2, reduction=reduction)
    if kind == "grid-armed":
        return ParallelFFTMatvec(
            blocks, ProcessGrid(2, 2), max_block_k=2, reduction=reduction, validate="abft"
        )
    if kind == "elastic":
        return ElasticEngine(blocks, 4, reduction=reduction, max_block_k=2)
    return FFTMatvec(blocks, reduction=reduction)


def _adjoints(eng, D, config, apply):
    if apply == "vector":
        return eng.rmatvec(D[:, :, 0], config)
    return eng.rmatmat(D, config, deterministic=apply == "deterministic")


@pytest.mark.parametrize("apply", ["vector", "block", "deterministic"])
@pytest.mark.parametrize("reduction", ["fast", "pairwise"])
@pytest.mark.parametrize("kind", ["single", "slabbed", "grid-shared", "grid-armed", "elastic"])
def test_adjoint_is_bitwise_the_held_conjugate_formula(
    monkeypatch, slab_bytes, engine_groups, kind, reduction, apply
):
    rng = np.random.default_rng(11)
    blocks = rng.standard_normal(SHAPE)
    D = rng.standard_normal((SHAPE[0], SHAPE[1], K))
    if kind == "slabbed":  # several slabs of each half, on two threads
        slab_bytes(256)
        engine_groups(2)
    eng = _build(kind, blocks, reduction)
    got = {config: _adjoints(eng, D, config, apply) for config in CONFIGS}
    with monkeypatch.context() as patch:
        _reference_pipeline(patch)
        ref = _build(kind, blocks, reduction)
        want = {config: _adjoints(ref, D, config, apply) for config in CONFIGS}
    differ = [c for c in CONFIGS if not np.array_equal(got[c], want[c])]
    assert not differ, differ


def test_a_double_adjoint_holds_one_spectrum():
    a = BlockTriangularToeplitz.random(128, 16, 256, rng=np.random.default_rng(0))
    D, out = np.ones((a.nt, a.nd, 16)), np.empty((a.nt, a.nm, 16))
    tracemalloc.start()
    try:
        eng = FFTMatvec(a)
        eng.rmatmat(D, out=out)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    spectrum = eng.spectrum("d").nbytes
    assert spectrum > 8 * toeplitz._PANEL_BYTES
    held = spectrum + eng.workspace.nbytes
    assert current <= held + toeplitz._PANEL_BYTES, (current - held) / toeplitz._PANEL_BYTES
