"""Multi-tenant serving layer over the five-phase solver engines.

The ROADMAP's production north star: many independent users issuing
matvec / rmatvec / solve requests against shared operator geometries.
This package provides the asyncio front end
(:class:`~repro.serve.service.SolverService` — bounded queue,
cross-request coalescing into blocked deterministic pipeline passes,
weighted per-tenant fairness, load-shed backpressure) and the
byte-budgeted engine residency layer
(:class:`~repro.serve.cache.EngineCache` — LRU over engines + FFT plans
+ workspace arenas, charged against a
:class:`~repro.gpu.memory.DeviceAllocator` capacity).  The serving load
generator is ``bench/wl_serve.py`` (the ``serve_applies`` workload).
See ``docs/SERVING.md`` for the architecture and knobs.
"""

from repro.serve.cache import (
    CacheStats,
    EngineCache,
    engine_footprint,
    operator_fingerprint,
)
from repro.serve.service import (
    DeadlineExpiredError,
    LatencyHistogram,
    ServeError,
    ServiceClosedError,
    ServiceOverloadedError,
    ServiceStats,
    SolveOptions,
    SolverService,
    TenantThrottledError,
    UnknownOperatorError,
)

__all__ = [
    "SolverService",
    "SolveOptions",
    "ServiceStats",
    "LatencyHistogram",
    "EngineCache",
    "CacheStats",
    "engine_footprint",
    "operator_fingerprint",
    "ServeError",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "TenantThrottledError",
    "DeadlineExpiredError",
    "UnknownOperatorError",
]
