"""Engine parity across backends.

Two layers of guarantee:

* **numpy bitwise** (always runs): constructing the engines with an
  explicit ``backend="numpy"`` produces byte-identical results to the
  default construction, for matvec/rmatvec/matmat/rmatmat on both
  :class:`FFTMatvec` and :class:`ParallelFFTMatvec` — the refactor seam
  changed nothing on the reference path — whether the explicit engine
  is fresh or warm (``warm_up``: applied at another width and config).
* **numpy vs torch** (skipped unless torch is importable — the CI torch
  leg exercises it): the same engines on :class:`TorchBackend` (CPU)
  match the numpy results to a tolerance tiered by the precision
  config's weakest phase.  Double-precision CPU results agree to a few
  ulps (FFT implementations differ, so bitwise is not demanded across
  libraries); single-tier configs get the single-precision tier.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import resolve_backend
from repro.comm.grid import ProcessGrid
from repro.core.matvec import FFTMatvec
from repro.core.parallel import ParallelFFTMatvec
from repro.core.precision import PrecisionConfig
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.util.dtypes import Precision, machine_eps
from tests.conftest import warm_up

NT, ND, NM, K = 16, 3, 10, 4

_torch_ok, _torch_reason = __import__(
    "repro.backend.torch_backend", fromlist=["TorchBackend"]
).TorchBackend.probe()

needs_torch = pytest.mark.skipif(not _torch_ok, reason=_torch_reason)

# Tolerance tier: the weakest phase precision bounds the achievable
# agreement between two correct implementations of the same pipeline.
CONFIGS = ("ddddd", "sssss", "dssdd")


def _tol(config: str) -> float:
    cfg = PrecisionConfig.parse(config)
    weakest = min(cfg.phases)
    return 1e3 * machine_eps(weakest)


def _problem(seed: int = 7):
    rng = np.random.default_rng(seed)
    matrix = BlockTriangularToeplitz.random(NT, ND, NM, rng=rng, decay=0.05)
    m = rng.standard_normal((NT, NM))
    d = rng.standard_normal((NT, ND))
    M = rng.standard_normal((NT, NM, K))
    D = rng.standard_normal((NT, ND, K))
    return matrix, m, d, M, D


def _apply_all(engine, config, m, d, M, D):
    return (
        engine.matvec(m, config=config),
        engine.rmatvec(d, config=config),
        engine.matmat(M, config=config),
        engine.rmatmat(D, config=config),
    )


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_numpy_explicit_backend_is_bitwise(config, warm):
    matrix, m, d, M, D = _problem()
    default = FFTMatvec(matrix)
    explicit = FFTMatvec(matrix, backend="numpy")
    if warm:
        warm_up(explicit)
    assert explicit.backend.name == "numpy"
    for got, want in zip(
        _apply_all(explicit, config, m, d, M, D),
        _apply_all(default, config, m, d, M, D),
    ):
        assert np.array_equal(got, want)
        assert got.dtype == np.float64


@pytest.mark.parametrize("config", CONFIGS)
def test_numpy_explicit_backend_is_bitwise_parallel(config):
    matrix, m, d, M, D = _problem()
    e_def = ParallelFFTMatvec(matrix, ProcessGrid(2, 2))
    e_np = ParallelFFTMatvec(
        matrix, ProcessGrid(2, 2), backend="numpy"
    )
    for got, want in zip(
        _apply_all(e_np, config, m, d, M, D),
        _apply_all(e_def, config, m, d, M, D),
    ):
        assert np.array_equal(got, want)


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


@needs_torch
@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_torch_cpu_matches_numpy_fftmatvec(config, warm, monkeypatch):
    monkeypatch.setenv("REPRO_TORCH_DEVICE", "cpu")
    matrix, m, d, M, D = _problem()
    ref = FFTMatvec(matrix, backend="numpy")
    tbe = resolve_backend("torch")
    eng = FFTMatvec(matrix, backend=tbe)
    if warm:
        warm_up(eng)
    tol = _tol(config)
    for got, want in zip(
        _apply_all(eng, config, m, d, M, D),
        _apply_all(ref, config, m, d, M, D),
    ):
        assert isinstance(got, np.ndarray) or not tbe.is_device
        got = np.asarray(tbe.from_device(got))
        assert got.dtype == np.float64
        assert _rel_err(got, want) < tol


@needs_torch
@pytest.mark.parametrize("config", ["ddddd", "dssdd"])
def test_torch_cpu_matches_numpy_parallel(config, monkeypatch):
    monkeypatch.setenv("REPRO_TORCH_DEVICE", "cpu")
    matrix, m, d, M, D = _problem()
    ref = ParallelFFTMatvec(
        matrix, ProcessGrid(2, 2), backend="numpy"
    )
    eng = ParallelFFTMatvec(
        matrix, ProcessGrid(2, 2), backend="torch"
    )
    assert eng.backend.name == "torch"
    tol = _tol(config)
    for got, want in zip(
        _apply_all(eng, config, m, d, M, D),
        _apply_all(ref, config, m, d, M, D),
    ):
        # The grid engine always gathers to host float64.
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert _rel_err(got, want) < tol


@needs_torch
def test_torch_backend_spectrum_roundtrip(monkeypatch):
    """The torch engine's cached spectrum matches the numpy engine's."""
    monkeypatch.setenv("REPRO_TORCH_DEVICE", "cpu")
    matrix, *_ = _problem()
    eng = FFTMatvec(matrix, backend="torch")
    host = FFTMatvec(matrix, backend="numpy").spectrum(Precision.DOUBLE)
    dev = eng.backend.from_device(eng.spectrum(Precision.DOUBLE))
    assert np.array_equal(host, dev)
