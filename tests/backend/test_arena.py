"""The workspace arena on every registered backend.

A pool holds one flat buffer per (tag, dtype) and slot, and a handout is
a view of its front: the views must be valid arrays of the backend
(numpy arrays, torch tensors), a write through a narrow view lands in
the wide one, and a regrowth hands out new memory marked fresh.  The
torch cases are skipped unless torch is importable (CI's backend-torch
job runs this directory on the CPU wheel).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import resolve_backend
from repro.backend.torch_backend import TorchBackend
from repro.core.matvec import FFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.util.workspace import Workspace

_torch_ok, _torch_reason = TorchBackend.probe()
BACKENDS = [
    "numpy",
    pytest.param("torch", marks=pytest.mark.skipif(not _torch_ok, reason=_torch_reason)),
]


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch):
    monkeypatch.setenv("REPRO_TORCH_DEVICE", "cpu")
    return resolve_backend(request.param)


def test_a_narrower_checkout_is_a_view_of_its_tags_buffer(backend):
    ws = Workspace(backend=backend)
    wide, fresh = ws.checkout_fresh("pad", (4, 6), np.float64)
    assert fresh
    ws.reset()
    narrow, fresh = ws.checkout_fresh("pad", (2, 6), np.float64)
    assert not fresh and tuple(narrow.shape) == (2, 6) and backend.is_contiguous(narrow)
    backend.copyto(wide, np.zeros((4, 6)))
    backend.copyto(narrow, np.ones((2, 6)))
    host = backend.from_device(wide)
    assert host[:2].all() and not host[2:].any()
    assert (ws.buffer_count, ws.alloc_count) == (1, 1)


def test_a_regrowth_hands_out_a_new_buffer_marked_fresh(backend):
    ws = Workspace(backend=backend)
    dropped = []
    ws.release_hooks.append(lambda: dropped.append(True))
    old = ws.checkout("x", (3,), np.complex64)
    backend.copyto(old, np.ones(3, np.complex64))
    ws.reset()
    new, fresh = ws.checkout_fresh("x", (2, 4), np.complex64)
    assert fresh and dropped == [True] and tuple(new.shape) == (2, 4)
    backend.copyto(new, np.zeros((2, 4), np.complex64))
    assert backend.from_device(old).all()  # the outgrown buffer is other memory
    assert (ws.buffer_count, ws.alloc_count, ws.nbytes) == (1, 2, 8 * 8)


def test_widths_that_shrink_and_grow_match_a_fresh_engine(backend):
    """An engine's applies over one arena at widths 6, 1, 4, 2, 6 match a
    fresh engine's at each width, fast and deterministic, F and F*."""
    rng = np.random.default_rng(11)
    matrix = BlockTriangularToeplitz.random(8, 3, 5, rng=rng)
    M, D = rng.standard_normal((8, 5, 6)), rng.standard_normal((8, 3, 6))
    eng = FFTMatvec(matrix, backend=backend)
    for k in (6, 1, 4, 2, 6):
        for deterministic in (False, True):
            fresh = FFTMatvec(matrix, backend=backend)
            for apply, V in (("matmat", M), ("rmatmat", D)):
                got = getattr(eng, apply)(V[:, :, :k], deterministic=deterministic)
                want = getattr(fresh, apply)(V[:, :, :k], deterministic=deterministic)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
