"""Byte-budgeted LRU cache of solver engines for the serving layer.

A long-lived solver service sees many distinct operators — different
tenants' problems, different geometries — but only a bounded slice of
device memory to keep them resident.  Each cached engine is expensive in
exactly the ways the repo already models: the spectrum ``F_hat`` (one
array per precision tier it has applied at) and the workspace arena the
allocation-free pipeline writes into — one buffer per tag, as large as
the widest block the engine ran, which its prepared-apply records view
(metadata, not counted).  This module provides:

* :func:`operator_fingerprint` — a stable content+geometry digest of a
  :class:`~repro.core.toeplitz.BlockTriangularToeplitz`, the key the
  coalescer groups requests under (engines with equal fingerprints
  compute identical answers, so their requests may share a blocked
  pipeline pass).  Anything that changes an engine's *numerics* must be
  keyed separately: the engines' ``geometry_key()`` carries the
  ``reduction`` mode, so a ``reduction="pairwise"`` engine never
  aliases a fast one in the cache, and the service keys each request's
  resolved determinism mode into its coalescing group;
* :func:`engine_footprint` — the modeled resident bytes of a built
  engine (the spectrum tiers it holds + arenas, grid-wide for the
  parallel engine).  An engine builds each spectrum tier on its first
  use; the transient that costs is not charged: one or two column
  panels (about 1 MiB each, see
  :meth:`~repro.core.toeplitz.BlockTriangularToeplitz.spectrum`), not a
  multiple of the footprint;
* :class:`EngineCache` — an LRU of built engines charged against a
  :class:`~repro.gpu.memory.DeviceAllocator` constructed with a
  ``capacity`` equal to the byte budget.  Admission *allocates* the
  engine's footprint; when the allocator refuses, least-recently-used
  entries are evicted (arenas released, registration freed) until the
  new engine fits.  The allocator enforces the budget by construction —
  ``in_use`` can never exceed it — and ``peak`` records the high-water
  mark the service actually reached.

The cache is deliberately synchronous and unlocked: the service runs
all engine work on one executor thread, which is also what keeps each
engine's workspace arena single-writer (see
:meth:`repro.util.workspace.Workspace.begin_apply`).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from repro.core.elastic import ElasticEngine
from repro.core.matvec import FFTMatvec
from repro.core.parallel import ParallelFFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.memory import Allocation, DeviceAllocator, OutOfMemoryError
from repro.gpu.specs import get_gpu
from repro.util.validation import ReproError

__all__ = [
    "operator_fingerprint",
    "engine_footprint",
    "CacheStats",
    "EngineCache",
]

Engine = Union[FFTMatvec, ParallelFFTMatvec, ElasticEngine]


def operator_fingerprint(matrix: Union[BlockTriangularToeplitz, np.ndarray]) -> str:
    """Stable hex digest of an operator's kernel content and geometry.

    Hashes the block-Toeplitz kernel's shape and bytes (SHA-1, first 16
    hex chars).  Two operators with equal fingerprints produce bitwise-equal engine
    results, which is what licenses the coalescer to batch their
    requests together.
    """
    mat = (
        matrix
        if isinstance(matrix, BlockTriangularToeplitz)
        else BlockTriangularToeplitz(np.asarray(matrix))
    )
    blocks = np.ascontiguousarray(mat.blocks, dtype=np.float64)
    h = hashlib.sha1()
    h.update(repr(blocks.shape).encode())
    h.update(blocks.tobytes())
    return h.hexdigest()[:16]


def _single_engine_bytes(engine: FFTMatvec) -> int:
    """Resident bytes of one single-device engine (spectra, the
    preconditioner factor once a solve built it, arena).

    Each held array counts once: a spectrum per tier, the complex64
    tier's transpose once an adjoint GEMM read it, and a conjugate only
    if a caller asked :meth:`~repro.core.matvec.FFTMatvec.spectrum_conj`
    for one (no apply does).  A fresh engine holds none yet, so the
    spectra are charged at least what its first apply builds: one
    complex128 spectrum, the size of a complex64 spectrum plus its
    transpose.
    """
    be = engine.backend
    held = [*engine._fhat.values(), *engine._fhat_t.values(), *engine._fhat_conj.values()]
    floor = engine.n_freq * engine.nd * engine.nm * np.dtype(np.complex128).itemsize
    total = max(floor, sum(int(be.nbytes(a)) for a in held))
    if engine._gram is not None:
        total += int(engine._gram.B.nbytes)
    return total + int(engine.workspace.nbytes)


def engine_footprint(engine: Engine) -> int:
    """Modeled resident bytes of a built engine.

    Counts what eviction would actually reclaim: the per-precision
    backend spectra the engine has built (with the complex64 tier's
    transpose; at least one complex128 spectrum's bytes), the preconditioner factor ``B``,
    and the workspace arena(s).  For :class:`ParallelFFTMatvec` this sums
    every rank engine plus the grid-level staging arena — the cache
    budget covers the whole simulated machine's share, matching
    :meth:`~repro.core.parallel.ParallelFFTMatvec.workspace_report`.
    """
    if isinstance(engine, ElasticEngine):
        # Measure the *current* grid engine — after a recovery reshape
        # the footprint is the survivors', not the original grid's.
        return engine_footprint(engine.engine)
    if isinstance(engine, ParallelFFTMatvec):
        total = sum(_single_engine_bytes(e) for e in engine.engines.values())
        return total + int(engine.workspace.nbytes)
    return _single_engine_bytes(engine)


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time cache counters (see :meth:`EngineCache.stats`)."""

    entries: int  # engines currently resident
    hits: int  # get() calls served from the cache
    misses: int  # get() calls that built an engine
    evictions: int  # engines dropped (LRU pressure or explicit)
    stale_evictions: int  # engines dropped because their grid reshaped
    budget_bytes: int  # the configured byte budget (allocator capacity)
    in_use_bytes: int  # bytes currently charged against the budget
    peak_bytes: int  # high-water mark of in_use_bytes


def _engine_geometry(engine: Engine) -> Optional[Tuple]:
    """The engine's geometry key, or None for engines without one."""
    key_fn = getattr(engine, "geometry_key", None)
    if key_fn is None:
        return None
    return key_fn()


@dataclass
class _CacheEntry:
    """A resident engine plus its budget registration."""

    engine: Engine
    alloc: Allocation
    footprint: int  # unrounded bytes (alloc.nbytes is alignment-rounded)
    geometry: Optional[Tuple] = None  # geometry_key() at admission


class EngineCache:
    """LRU engine cache under a :class:`DeviceAllocator` byte budget.

    Parameters
    ----------
    budget_bytes:
        Total resident bytes allowed across all cached engines.  The
        budget is enforced by a private allocator constructed with this
        ``capacity`` — admission that would exceed it either evicts
        least-recently-used engines until it fits or raises
        :class:`~repro.gpu.memory.OutOfMemoryError` (one engine larger
        than the whole budget cannot be admitted at all).  The allocator
        reports under an MI250X spec, purely for accounting.
    """

    def __init__(self, budget_bytes: int) -> None:
        if budget_bytes <= 0:
            raise ReproError(f"budget_bytes must be positive, got {budget_bytes}")
        self.budget_bytes = int(budget_bytes)
        self.allocator = DeviceAllocator(get_gpu("MI250X"), capacity=self.budget_bytes)
        self._entries: "OrderedDict[str, _CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stale_evictions = 0

    # -- admission / lookup ---------------------------------------------------
    def get(
        self, key: str, builder: Optional[Callable[[], Engine]] = None
    ) -> Engine:
        """Return the engine for ``key``, building it on a miss.

        A hit refreshes the entry's LRU position.  A miss calls
        ``builder()`` (raising :class:`ReproError` when none is given),
        measures the new engine's footprint and charges it against the
        budget, evicting least-recently-used entries as needed.

        A hit also re-checks the engine's ``geometry_key()`` against the
        one recorded at admission.  Elastic engines reshape in place
        when a rank dies mid-run, and a reshaped engine must never be
        served as if it still ran the admitted geometry — its per-rank
        shapes, collectives and footprint all changed.  A mismatch
        evicts the stale entry (counted in ``stale_evictions``) and
        rebuilds through ``builder`` as if it were a miss.
        """
        entry = self._entries.get(key)
        if entry is not None:
            geometry = _engine_geometry(entry.engine)
            if geometry != entry.geometry:
                self.stale_evictions += 1
                self.evict(key)
            else:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry.engine
        if builder is None:
            raise ReproError(f"engine {key!r} is not cached and no builder given")
        self.misses += 1
        engine = builder()
        footprint = engine_footprint(engine)
        alloc = self._reserve(footprint, tag=f"engine/{key}")
        self._entries[key] = _CacheEntry(
            engine, alloc, footprint, geometry=_engine_geometry(engine)
        )
        return engine

    def update_footprint(self, key: str) -> int:
        """Re-measure an entry's footprint and true-up its budget charge.

        Engines grow lazily (precision spectrum copies on first use,
        arena buffers on the first apply wider than any before it, the
        preconditioner factor on the first admitted solve), so the service
        calls this after every flush.  Growth that no longer fits evicts
        LRU peers; if the engine alone exceeds the whole budget it is
        dropped and :class:`OutOfMemoryError` propagates.  Returns the
        new footprint in bytes.
        """
        entry = self._entries.get(key)
        if entry is None:
            raise ReproError(f"engine {key!r} is not cached")
        # An elastic engine that recovered *during* the flush reshaped in
        # place and finished the pass on the new grid; re-record its
        # geometry so the next hit serves it instead of evicting it.
        entry.geometry = _engine_geometry(entry.engine)
        footprint = engine_footprint(entry.engine)
        if footprint == entry.footprint:
            return footprint
        # Delist before releasing the old charge: the eviction loop
        # inside _reserve walks the LRU and must not see (and free a
        # second time) the very entry being re-measured.
        del self._entries[key]
        self.allocator.free(entry.alloc)
        try:
            entry.alloc = self._reserve(footprint, tag=f"engine/{key}")
        except OutOfMemoryError:
            self._release_engine(entry.engine)
            self.evictions += 1
            raise
        entry.footprint = footprint
        self._entries[key] = entry  # re-admitted as most-recently used
        return footprint

    def _reserve(self, nbytes: int, tag: str) -> Allocation:
        """Charge ``nbytes`` against the budget, evicting LRU to fit."""
        while True:
            try:
                return self.allocator.malloc(nbytes, tag=tag)
            except OutOfMemoryError:
                if self.evict_lru() is None:
                    raise

    # -- eviction -------------------------------------------------------------
    @staticmethod
    def _release_engine(engine: Engine) -> None:
        """Free an evicted engine's arenas so the bytes really return."""
        if isinstance(engine, ElasticEngine):
            engine = engine.engine
        if isinstance(engine, ParallelFFTMatvec):
            for rank_engine in engine.engines.values():
                rank_engine.workspace.release()
        engine.workspace.release()

    def evict_lru(self) -> Optional[str]:
        """Evict the least-recently-used engine; returns its key (or
        None when the cache is already empty)."""
        if not self._entries:
            return None
        key, entry = self._entries.popitem(last=False)
        self.allocator.free(entry.alloc)
        self._release_engine(entry.engine)
        self.evictions += 1
        return key

    def evict(self, key: str) -> None:
        """Evict a specific engine (no-op when absent)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        self.allocator.free(entry.alloc)
        self._release_engine(entry.engine)
        self.evictions += 1

    def clear(self) -> None:
        """Evict everything (budget returns to fully free)."""
        while self.evict_lru() is not None:
            pass

    # -- introspection --------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        """Membership test without touching LRU order."""
        return key in self._entries

    def __len__(self) -> int:
        """Number of resident engines."""
        return len(self._entries)

    def keys(self) -> Tuple[str, ...]:
        """Resident keys, least- to most-recently used."""
        return tuple(self._entries.keys())

    def stats(self) -> CacheStats:
        """Snapshot of hit/miss/eviction counters and budget usage."""
        return CacheStats(
            entries=len(self._entries),
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            stale_evictions=self.stale_evictions,
            budget_bytes=self.budget_bytes,
            in_use_bytes=self.allocator.in_use,
            peak_bytes=self.allocator.peak,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EngineCache(entries={len(self._entries)}, "
            f"in_use={self.allocator.in_use}/{self.budget_bytes} B)"
        )
