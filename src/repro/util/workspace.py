"""Workspace arena: allocation-free hot paths for the matvec engines.

The paper's production code runs the pad → FFT → SBGEMM → IFFT → unpad
pipeline out of *persistent* device buffers — nothing is ``cudaMalloc``'d
per apply.  This module is the reproduction's counterpart: a
:class:`Workspace` is a per-engine arena of reusable NumPy buffers keyed
by ``(tag, shape, dtype)``, so iterative consumers (block-CG, randomized
posterior eig/sampling, the OED greedy loop — thousands of applies)
stop paying Python/NumPy allocation churn on every phase of every apply.

Two handout disciplines, both backed by the same keyed pools:

* :meth:`Workspace.checkout` — *per-apply* slots.  The n-th checkout of
  a key since the last :meth:`~Workspace.reset` returns the n-th buffer
  of that key's pool (grown on demand).  An engine calls ``reset()`` at
  the top of each apply, so every pipeline call site gets the same
  buffer apply after apply, while a site that legitimately needs two
  live buffers of one key (ping-pong) just checks the key out twice.
* :meth:`Workspace.buffer` — *persistent* identity.  The same key always
  returns the same buffer, across resets.  The grid engine's chunk loop
  uses this with parity tags (``pay[i % 2]``) so chunk ``i + 1``'s
  prefetched broadcast payload never collides with chunk ``i``'s live
  one, while chunk ``i + 2`` reuses chunk ``i``'s buffers.

Buffers are handed out **uninitialized** (``np.empty``); callers own the
fill.  The arena only ever *grows*: a steady-state workload stops
growing after its first (warm-up) apply, which is what
``alloc_count`` measures and the allocation-regression tests assert.

When constructed with a :class:`~repro.gpu.memory.DeviceAllocator`
(e.g. ``device.allocator``), every arena buffer is registered as a live
device allocation, so the allocator's ``peak`` reflects the modeled
device footprint of the persistent workspace — a first-class report
field for capacity planning.  :meth:`Workspace.release` frees the
registrations (and drops the buffers), letting leak checks pass.

The checkout discipline assumes **one apply at a time**: two pipelines
interleaving checkouts on a shared arena would silently hand the same
buffer to both (the slot cursor cannot tell the callers apart).  The
engines therefore bracket every apply in :func:`apply_scope`
(:meth:`Workspace.begin_apply` / :meth:`Workspace.end_apply`), which
raises :class:`ReproError` on re-entrant use instead of corrupting
results — the serving layer relies on this plus per-engine arenas to
keep concurrent tenants safe.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.backend import Backend, NumpyBackend
from repro.gpu.memory import Allocation, DeviceAllocator
from repro.util.validation import ReproError

__all__ = ["Workspace", "WorkspaceStats", "apply_scope"]

_Key = Tuple[str, Tuple[int, ...], np.dtype]

# Leaf-module default: the numpy singleton.  Engines resolve the
# env/auto chain and pass their backend down explicitly.
_NUMPY = NumpyBackend()


@functools.lru_cache(maxsize=4096)
def _normalized_key(tag: str, shape, dtype) -> _Key:
    """The arena key of one call site's ``(tag, shape, dtype)``: built
    once per distinct argument triple, then a cache hit — call sites
    hand in the same shapes apply after apply."""
    if isinstance(shape, (int, np.integer)):
        shape = (int(shape),)
    return (str(tag), tuple(int(s) for s in shape), np.dtype(dtype))


@dataclass(frozen=True)
class WorkspaceStats:
    """Point-in-time arena counters (see :meth:`Workspace.stats`)."""

    buffers: int  # distinct live buffers
    nbytes: int  # sum of buffer sizes (exact, unaligned)
    registered_bytes: int  # sum of allocator-registered sizes (aligned)
    alloc_count: int  # buffers ever allocated (growth events)
    checkout_count: int  # total handouts (hits + growth)
    resets: int  # apply boundaries seen


class Workspace:
    """A keyed arena of reusable buffers with a checkout/reset discipline.

    Parameters
    ----------
    allocator:
        Optional :class:`DeviceAllocator` to register arena buffers
        with, so the modeled device peak includes the arena footprint.
    name:
        Label used in allocator tags and reprs.
    backend:
        Array backend that allocates the buffers (default numpy).  Keys
        stay numpy-dtype-based regardless of backend; only the buffer
        objects change type.
    """

    def __init__(
        self,
        allocator: Optional[DeviceAllocator] = None,
        name: str = "workspace",
        backend: Optional[Backend] = None,
    ) -> None:
        self.allocator = allocator
        self.name = name
        self.backend = backend if backend is not None else _NUMPY
        self._pools: Dict[_Key, List[Any]] = {}
        self._cursors: Dict[_Key, int] = {}
        self._registered: List[Allocation] = []
        self._registered_bytes = 0
        self.alloc_count = 0
        self.checkout_count = 0
        self.resets = 0
        self.apply_epoch = 0
        self._in_use = False
        self._released = False
        # Called by release(): whoever keeps arena buffers across applies
        # (an engine's prepared-apply records) drops them here.
        self.release_hooks: List[Callable[[], Any]] = []

    # -- keying / growth -----------------------------------------------------
    @staticmethod
    def _key(tag: str, shape, dtype) -> _Key:
        return _normalized_key(tag, tuple(shape) if isinstance(shape, list) else shape, dtype)

    def _grow(self, key: _Key) -> Any:
        tag, shape, dtype = key
        buf = self.backend.empty(shape, dtype)
        self.alloc_count += 1
        if self.allocator is not None:
            alloc = self.allocator.malloc(
                self.backend.nbytes(buf), tag=f"{self.name}/{tag}"
            )
            self._registered.append(alloc)
            self._registered_bytes += alloc.nbytes
        return buf

    def _handout(self, key: _Key, slot: int) -> Tuple[Any, bool]:
        if self._released:
            raise ReproError(f"workspace {self.name!r} has been released")
        pool = self._pools.setdefault(key, [])
        fresh = slot >= len(pool)
        while slot >= len(pool):
            pool.append(self._grow(key))
        self.checkout_count += 1
        return pool[slot], fresh

    # -- handout APIs --------------------------------------------------------
    def checkout(self, tag: str, shape, dtype) -> Any:
        """Per-apply slot: the n-th checkout of a key since ``reset()``
        returns the n-th buffer of that key's pool (uninitialized)."""
        return self.checkout_fresh(tag, shape, dtype)[0]

    def checkout_fresh(self, tag: str, shape, dtype) -> Tuple[Any, bool]:
        """Like :meth:`checkout`, also reporting whether the buffer was
        just allocated.  A site that is the key's *only writer* can use
        the flag to skip re-establishing an invariant it already wrote
        (e.g. the pad kernel's zero padding half survives across
        applies because nothing else touches that buffer).
        """
        key = self._key(tag, shape, dtype)
        slot = self._cursors.get(key, 0)
        self._cursors[key] = slot + 1
        return self._handout(key, slot)

    def buffer(self, tag: str, shape, dtype) -> Any:
        """Persistent identity: the same key always returns the same
        buffer, across resets (uninitialized on first handout)."""
        return self._handout(self._key(tag, shape, dtype), 0)[0]

    def reset(self) -> None:
        """Mark an apply boundary: all checkout cursors return to 0.

        Buffer contents are untouched — only the handout order restarts,
        so every call site re-acquires the same buffer next apply.
        """
        if self._cursors:
            self._cursors.clear()
        self.resets += 1

    # -- apply-scope guard ----------------------------------------------------
    @property
    def in_use(self) -> bool:
        """True while an apply bracketed by :meth:`begin_apply` is live."""
        return self._in_use

    def begin_apply(self) -> int:
        """Open an apply scope: reset cursors, refuse re-entrant use.

        Raises :class:`ReproError` if a previous :meth:`begin_apply` has
        not been closed by :meth:`end_apply` — two interleaved applies on
        one arena would alias each other's checkout slots and corrupt
        results silently, so the engines fail loudly instead.  Returns
        the new ``apply_epoch`` (a monotone counter of apply scopes).
        """
        if self._released:
            raise ReproError(f"workspace {self.name!r} has been released")
        if self._in_use:
            raise ReproError(
                f"workspace {self.name!r} is already mid-apply "
                f"(epoch {self.apply_epoch}): concurrent applies sharing one "
                "arena would alias checkout slots — serialize applies or give "
                "each engine its own workspace"
            )
        self._in_use = True
        self.apply_epoch += 1
        self.reset()
        return self.apply_epoch

    def end_apply(self) -> None:
        """Close the apply scope opened by :meth:`begin_apply`."""
        self._in_use = False

    # -- introspection -------------------------------------------------------
    @property
    def buffer_count(self) -> int:
        return sum(len(pool) for pool in self._pools.values())

    @property
    def nbytes(self) -> int:
        """Exact bytes held by arena buffers (unaligned)."""
        return sum(
            self.backend.nbytes(b) for pool in self._pools.values() for b in pool
        )

    @property
    def registered_bytes(self) -> int:
        """Bytes registered with the device allocator (alignment-rounded)."""
        return self._registered_bytes

    def stats(self) -> WorkspaceStats:
        """Snapshot of the arena counters (sizes, growth, handouts)."""
        return WorkspaceStats(
            buffers=self.buffer_count,
            nbytes=self.nbytes,
            registered_bytes=self._registered_bytes,
            alloc_count=self.alloc_count,
            checkout_count=self.checkout_count,
            resets=self.resets,
        )

    # -- lifetime ------------------------------------------------------------
    def release(self) -> None:
        """Drop all buffers and free their allocator registrations.

        Idempotent; a released workspace refuses further handouts (the
        engine owning it is being torn down).
        """
        if self._released:
            return
        for alloc in self._registered:
            self.allocator.free(alloc)  # type: ignore[union-attr]
        for hook in self.release_hooks:
            hook()
        self._registered.clear()
        self._registered_bytes = 0
        self._pools.clear()
        self._cursors.clear()
        self._in_use = False
        self._released = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Workspace({self.name!r}, buffers={self.buffer_count}, "
            f"nbytes={self.nbytes}, allocs={self.alloc_count})"
        )


class apply_scope:
    """Bracket one engine apply in the arena's re-entrancy guard.

    No-op without a workspace; otherwise cursors reset at the apply
    boundary and a second apply interleaving on the same arena raises
    :class:`ReproError` instead of aliasing checkout slots.  A class,
    not a generator: it opens every apply, small ones included.
    """

    __slots__ = ("ws",)

    def __init__(self, ws: Optional[Workspace]) -> None:
        self.ws = ws

    def __enter__(self) -> None:
        if self.ws is not None:
            self.ws.begin_apply()

    def __exit__(self, *exc) -> None:
        if self.ws is not None:
            self.ws.end_apply()
