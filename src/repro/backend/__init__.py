"""Pluggable array backends for the five-phase pipeline.

See :mod:`repro.backend.base` for the protocol and
:mod:`repro.backend.registry` for the ``REPRO_BACKEND`` fallback chain.
Importing this package never imports torch — the torch backend class
is loaded lazily when named.
"""

from repro.backend.base import (
    Backend,
    BackendFallbackWarning,
    BackendUnavailableError,
    host_empty,
)
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.registry import (
    BACKEND_CHAIN,
    available_backends,
    resolve_backend,
)

__all__ = [
    "Backend",
    "BackendFallbackWarning",
    "BackendUnavailableError",
    "BACKEND_CHAIN",
    "NumpyBackend",
    "available_backends",
    "host_empty",
    "resolve_backend",
]
