"""Fallback-chain resolution: env handling, warnings, explicit errors."""

from __future__ import annotations

import sys
import warnings

import pytest

from repro.backend import (
    BACKEND_CHAIN,
    Backend,
    BackendFallbackWarning,
    BackendUnavailableError,
    NumpyBackend,
    available_backends,
    registry,
    resolve_backend,
)


@pytest.fixture(autouse=True)
def _fresh_registry(monkeypatch):
    """Each test sees a registry with no cached instances or warn flag;
    the process's own cache and flag come back afterwards."""
    monkeypatch.setattr(registry, "_instances", {})
    monkeypatch.setattr(registry, "_fallback_warned", False)


def _mock_device_backends_absent(monkeypatch):
    """Make ``import torch`` raise ImportError."""
    monkeypatch.setitem(sys.modules, "torch", None)


def test_chain_order_ends_in_numpy():
    """Two rungs: the backend CI runs (torch), then the numpy floor."""
    assert BACKEND_CHAIN == ("torch", "numpy")


def test_explicit_numpy_always_resolves():
    be = resolve_backend("numpy")
    assert isinstance(be, NumpyBackend)
    assert be.name == "numpy"
    assert not be.is_device


def test_backend_instance_passes_through():
    mine = NumpyBackend()
    assert resolve_backend(mine) is mine


def test_instances_cached_per_name():
    assert resolve_backend("numpy") is resolve_backend("numpy")


def test_auto_with_device_backends_absent_falls_back_to_numpy(monkeypatch):
    _mock_device_backends_absent(monkeypatch)
    with pytest.warns(BackendFallbackWarning) as record:
        be = resolve_backend("auto")
    assert be.name == "numpy"
    fallback = [w for w in record if issubclass(w.category, BackendFallbackWarning)]
    assert len(fallback) == 1
    msg = str(fallback[0].message)
    assert msg.startswith("REPRO_BACKEND=auto fell back to 'numpy' (torch: ")
    assert msg.endswith(")") and "cupy" not in msg


def test_auto_warns_exactly_once_per_process(monkeypatch):
    _mock_device_backends_absent(monkeypatch)
    with pytest.warns(BackendFallbackWarning):
        resolve_backend("auto")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a second warning would raise
        assert resolve_backend("auto").name == "numpy"


def test_env_variable_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    assert resolve_backend(None).name == "numpy"


def test_env_auto_is_default(monkeypatch):
    _mock_device_backends_absent(monkeypatch)
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    with pytest.warns(BackendFallbackWarning):
        assert resolve_backend(None).name == "numpy"


@pytest.mark.parametrize("name", ["torch"])
def test_explicit_device_backend_raises_with_install_hint(monkeypatch, name):
    monkeypatch.setitem(sys.modules, name, None)
    with pytest.raises(BackendUnavailableError) as exc:
        resolve_backend(name)
    msg = str(exc.value)
    assert name in msg
    assert "pip install" in msg
    assert f".[{name}]" in msg


def test_explicit_mode_never_silently_substitutes(monkeypatch):
    """Explicit torch on a torch-less host must raise, not hand back numpy."""
    monkeypatch.setitem(sys.modules, "torch", None)
    with pytest.raises(BackendUnavailableError):
        resolve_backend("torch")


@pytest.mark.parametrize("how", ["argument", "env"])
def test_cupy_is_no_longer_a_backend(monkeypatch, how):
    """No CuPy backend is registered: naming it, as an argument or as
    ``REPRO_BACKEND=cupy``, is an unknown name that lists the known ones
    (and never imports cupy)."""
    monkeypatch.setitem(sys.modules, "cupy", None)
    monkeypatch.setenv("REPRO_BACKEND", "cupy")
    with pytest.raises(BackendUnavailableError) as exc:
        resolve_backend("cupy" if how == "argument" else None)
    assert str(exc.value) == "unknown backend 'cupy'; known backends: torch, numpy"


def test_unknown_backend_name_lists_known_ones():
    with pytest.raises(BackendUnavailableError) as exc:
        resolve_backend("tensorflow")
    msg = str(exc.value)
    assert "tensorflow" in msg
    for known in BACKEND_CHAIN:
        assert known in msg


def test_available_backends_probes_all(monkeypatch):
    _mock_device_backends_absent(monkeypatch)
    probes = available_backends()
    assert set(probes) == set(BACKEND_CHAIN)
    assert probes["numpy"][0] is True
    assert probes["torch"][0] is False


def test_auto_hands_back_the_cached_named_instance(monkeypatch):
    _mock_device_backends_absent(monkeypatch)
    with pytest.warns(BackendFallbackWarning):
        first = resolve_backend(None)
    assert isinstance(first, Backend)
    assert resolve_backend("auto") is first is resolve_backend("numpy")
