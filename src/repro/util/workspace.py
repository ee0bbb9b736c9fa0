"""Workspace arena: allocation-free hot paths for the matvec engines.

The paper's production code runs the pad → FFT → SBGEMM → IFFT → unpad
pipeline out of *persistent* device buffers — nothing is ``cudaMalloc``'d
per apply.  This module is the reproduction's counterpart: a
:class:`Workspace` is a per-engine arena with one pool per ``(tag,
dtype)``, so iterative consumers (CG and block-CG, the serving layer's
coalesced solves — thousands of applies) stop paying allocation churn.
Each slot of a pool holds **one flat buffer**, regrown to the largest
request it has seen, and a handout is a C-contiguous view of its first
``prod(shape)`` elements: every block width runs out of the same bytes,
so an engine that applied widths 1..16 holds what width 16 alone needs.

Two handout disciplines, both backed by the same pools:

* :meth:`Workspace.checkout` — *per-apply* slots.  The n-th checkout of
  a ``(tag, dtype)`` since the last :meth:`~Workspace.reset` is a view
  of the n-th slot.  An engine calls ``reset()`` at the top of each
  apply, so every call site gets the same slot apply after apply, while
  a site that needs two live buffers of one tag checks it out twice.
* :meth:`Workspace.buffer` — *persistent* identity: slot 0, across
  resets.  The grid engine's chunk loop uses parity tags (``pay[i %
  2]``) so chunk ``i + 1``'s prefetched broadcast payload never collides
  with chunk ``i``'s live one, while chunk ``i + 2`` reuses chunk ``i``'s.

Buffers are handed out **uninitialized**; callers own the fill.  A
steady-state workload stops growing once it has seen its widest request,
which is what ``alloc_count`` measures.  Whoever keeps views across
applies — an engine's prepared-apply records, the grid's staged
payloads — registers a callback in :attr:`Workspace.release_hooks`; a
regrowth runs them as :meth:`~Workspace.release` does, so no kept view
holds an outgrown buffer alive, and the holders need no bound of their
own: what they keep is metadata over the arena's bytes.

With a :class:`~repro.gpu.memory.DeviceAllocator` (e.g.
``device.allocator``) every live buffer is registered as a device
allocation, so the allocator's ``peak`` is the modeled footprint of the
persistent workspace; ``release()`` frees the registrations.

The checkout discipline assumes **one apply at a time**: two pipelines
interleaving checkouts on a shared arena would silently hand the same
buffer to both.  The engines therefore bracket every apply in ``with
workspace:`` (:meth:`Workspace.begin_apply` / :meth:`Workspace.end_apply`),
which raises :class:`ReproError` on re-entrant use instead — the serving
layer relies on this plus per-engine arenas to keep tenants safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.backend import Backend, NumpyBackend
from repro.gpu.memory import DeviceAllocator
from repro.util.validation import ReproError

__all__ = ["Workspace", "WorkspaceStats"]

_Key = Tuple[str, np.dtype]

# Leaf-module default: the numpy singleton.  Engines resolve the
# env/auto chain and pass their backend down explicitly.
_NUMPY = NumpyBackend()


@functools.lru_cache(maxsize=4096)
def _normalized_key(tag: str, shape, dtype) -> Tuple[_Key, Tuple[int, ...], int]:
    """One call site's pool key, view shape and element count: built
    once per distinct ``(tag, shape, dtype)``, then a cache hit — call
    sites hand in the same shapes apply after apply."""
    if isinstance(shape, (int, np.integer)):
        shape = (int(shape),)
    shape = tuple(int(s) for s in shape)
    return (str(tag), np.dtype(dtype)), shape, math.prod(shape)


@dataclass
class _Slot:
    """One flat buffer of a pool and its allocator registration."""

    buf: Any
    alloc: Any = None


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
    """A per-tag arena of reusable flat buffers, checkout/reset discipline.

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
        self._pools: Dict[_Key, List[_Slot]] = {}
        self._cursors: Dict[_Key, int] = {}
        self._registered_bytes = 0
        self.alloc_count = 0
        self.checkout_count = 0
        self.resets = 0
        self.apply_epoch = 0
        self._in_use = False
        self._released = False
        # Called by release() and by every regrowth: whoever keeps views
        # of arena buffers across applies (an engine's prepared-apply
        # records, the grid's staged payloads) drops them here.
        self.release_hooks: List[Callable[[], Any]] = []

    # -- growth --------------------------------------------------------------
    def _free(self, s: _Slot) -> None:
        if s.alloc is not None:
            self.allocator.free(s.alloc)  # type: ignore[union-attr]
            self._registered_bytes -= s.alloc.nbytes

    def _grow(self, key: _Key, pool: List[_Slot], slot: int, n: int) -> None:
        """(Re)allocate ``pool[slot]`` at ``n`` elements.  An outgrown
        buffer's registration is freed and every kept view of the arena
        dropped (``release_hooks``)."""
        if slot < len(pool):
            self._free(pool[slot])
        s = _Slot(self.backend.empty((n,), key[1]))
        self.alloc_count += 1
        if self.allocator is not None:
            s.alloc = self.allocator.malloc(self.backend.nbytes(s.buf), tag=f"{self.name}/{key[0]}")
            self._registered_bytes += s.alloc.nbytes
        if slot == len(pool):
            pool.append(s)
            return
        pool[slot] = s
        for hook in self.release_hooks:
            hook()

    def _handout(self, tag: str, shape, dtype, slot: Optional[int]) -> Tuple[Any, bool]:
        if self._released:
            raise ReproError(f"workspace {self.name!r} has been released")
        key, shape, n = _normalized_key(tag, tuple(shape) if isinstance(shape, list) else shape, dtype)
        if slot is None:  # per-apply: the key's next slot
            slot = self._cursors.get(key, 0)
            self._cursors[key] = slot + 1
        pool = self._pools.setdefault(key, [])
        fresh = slot == len(pool) or pool[slot].buf.shape[0] < n
        if fresh:
            self._grow(key, pool, slot, n)
        self.checkout_count += 1
        return pool[slot].buf[:n].reshape(shape), fresh

    # -- handout APIs --------------------------------------------------------
    def checkout(self, tag: str, shape, dtype) -> Any:
        """Per-apply slot: the n-th checkout of ``(tag, dtype)`` since
        ``reset()`` is a ``shape`` view of the n-th slot's buffer
        (uninitialized)."""
        return self._handout(tag, shape, dtype, None)[0]

    def checkout_fresh(self, tag: str, shape, dtype) -> Tuple[Any, bool]:
        """Like :meth:`checkout`, also reporting whether the slot's buffer
        was just (re)allocated.  The tag's *only writer* can skip
        re-writing an invariant it wrote over the whole buffer: the pad's
        zero half survives at every width, because a padded row is
        ``2 * Nt`` long at every width."""
        return self._handout(tag, shape, dtype, None)

    def buffer(self, tag: str, shape, dtype) -> Any:
        """Persistent identity: a ``shape`` view of slot 0 of
        ``(tag, dtype)``, across resets (uninitialized on first
        handout)."""
        return self._handout(tag, shape, dtype, 0)[0]

    def reset(self) -> None:
        """Mark an apply boundary: every checkout cursor returns to slot 0
        (buffer contents are untouched)."""
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

        Raises :class:`ReproError` while a previous scope is open (two
        interleaved applies would alias each other's slots).  Returns the
        new ``apply_epoch``, a monotone counter of apply scopes.
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

    def end_apply(self, *exc) -> None:
        """Close the apply scope opened by :meth:`begin_apply` (as
        ``__exit__`` too: whatever the apply raised, ``exc``)."""
        self._in_use = False

    # ``with workspace:`` brackets one engine apply.
    __enter__, __exit__ = begin_apply, end_apply

    # -- introspection -------------------------------------------------------
    @property
    def buffer_count(self) -> int:
        return sum(len(pool) for pool in self._pools.values())

    @property
    def nbytes(self) -> int:
        """Exact bytes held by arena buffers (unaligned)."""
        return sum(
            self.backend.nbytes(s.buf) for pool in self._pools.values() for s in pool
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
        for pool in self._pools.values():
            for s in pool:
                self._free(s)
        for hook in self.release_hooks:
            hook()
        self._pools.clear()
        self._cursors.clear()
        self._in_use = False
        self._released = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Workspace({self.name!r}, buffers={self.buffer_count}, "
            f"nbytes={self.nbytes}, allocs={self.alloc_count})"
        )
