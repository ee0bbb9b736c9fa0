"""Backend resolution: explicit names, the ``REPRO_BACKEND`` env, and
the ``auto`` fallback chain.

Resolution order for :func:`resolve_backend`:

1. a :class:`Backend` *instance* passes through untouched;
2. an explicit name (``"numpy"``/``"torch"``) is probed and **raises**
   :class:`BackendUnavailableError` when the host can't run it —
   naming the install extra — never silently substituting; any other
   name raises too, naming the known backends;
3. ``None`` reads the ``REPRO_BACKEND`` environment variable, default
   ``auto``;
4. ``auto`` walks ``torch → numpy`` and takes the first backend whose
   probe passes, emitting one :class:`BackendFallbackWarning` per
   process when torch was skipped.

Only backends that run somewhere are registered: numpy everywhere, torch
on CPU in CI's ``backend-torch`` job (or CUDA where present).

Instances are cached per name (backends are stateless beyond their
module handles), and only the *engines* and the CLI resolve the
env/auto chain — leaf modules (workspace, kernels, planner, comm)
default to the numpy singleton so library users never trip a device
backend by importing a helper.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, Tuple, Type, Union

from repro.backend.base import (
    Backend,
    BackendFallbackWarning,
    BackendUnavailableError,
)

__all__ = ["resolve_backend", "available_backends", "BACKEND_CHAIN"]

#: ``auto`` preference order: fastest hardware first, numpy as the floor.
BACKEND_CHAIN: Tuple[str, ...] = ("torch", "numpy")

_INSTALL_EXTRA = {"torch": "pip install .[torch]"}

_instances: Dict[str, Backend] = {}
_fallback_warned = False


def _backend_class(name: str) -> Type[Backend]:
    # Imported lazily so that ``import repro.backend`` never touches
    # torch (absent on most hosts) at import time.
    if name == "numpy":
        from repro.backend.numpy_backend import NumpyBackend

        return NumpyBackend
    if name == "torch":
        from repro.backend.torch_backend import TorchBackend

        return TorchBackend
    raise BackendUnavailableError(
        f"unknown backend {name!r}; known backends: {', '.join(BACKEND_CHAIN)}"
    )


def _instance(name: str) -> Backend:
    be = _instances.get(name)
    if be is None:
        be = _backend_class(name)()
        _instances[name] = be
    return be


def available_backends() -> Dict[str, Tuple[bool, str]]:
    """Probe every known backend: ``{name: (available, reason)}``."""
    return {name: _backend_class(name).probe() for name in BACKEND_CHAIN}


def _resolve_auto() -> Backend:
    global _fallback_warned
    skipped = []
    for name in BACKEND_CHAIN:
        ok, reason = _backend_class(name).probe()
        if ok:
            if skipped and not _fallback_warned:
                _fallback_warned = True
                detail = "; ".join(f"{n}: {r}" for n, r in skipped)
                warnings.warn(
                    f"REPRO_BACKEND=auto fell back to {name!r} ({detail})",
                    BackendFallbackWarning,
                    stacklevel=3,
                )
            return _instance(name)
        skipped.append((name, reason))
    # numpy's probe is unconditional; unreachable in practice.
    raise BackendUnavailableError(
        "no array backend available: " + "; ".join(f"{n}: {r}" for n, r in skipped)
    )


def resolve_backend(which: Union[Backend, str, None] = None) -> Backend:
    """Resolve ``which`` to a live :class:`Backend` instance.

    Pass a :class:`Backend` to use it as-is, a name for explicit mode
    (raises :class:`BackendUnavailableError` when unavailable), or
    ``None`` to follow ``REPRO_BACKEND`` (default ``auto``).
    """
    if isinstance(which, Backend):
        return which
    if which is None:
        which = os.environ.get("REPRO_BACKEND", "").strip() or "auto"
    name = str(which).strip().lower()
    if name == "auto":
        return _resolve_auto()
    cls = _backend_class(name)
    ok, reason = cls.probe()
    if not ok:
        hint = _INSTALL_EXTRA.get(name)
        msg = f"backend {name!r} was requested explicitly but is unavailable: {reason}"
        if hint:
            msg += f" (install with `{hint}`)"
        raise BackendUnavailableError(msg)
    return _instance(name)
