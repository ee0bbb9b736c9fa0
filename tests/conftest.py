"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import zlib

import numpy as np
import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "chaos: seeded fault-injection test (rerun a failure with "
        "REPRO_CHAOS_SEED=<printed seed>)",
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG; tests needing other seeds construct their own."""
    return np.random.default_rng(12345)


@pytest.fixture
def chaos_seed(request) -> int:
    """The seed driving this test's fault injection.

    Stable per test (derived from the node id) so chaos runs are
    reproducible by default; ``REPRO_CHAOS_SEED`` overrides it globally,
    which is how a CI failure is replayed locally — the seed is printed
    at setup, so a failing test's output always shows the value to
    export.
    """
    env = os.environ.get("REPRO_CHAOS_SEED")
    if env is not None:
        seed = int(env)
    else:
        seed = zlib.crc32(request.node.nodeid.encode()) & 0x7FFFFFFF
    print(f"\n[chaos] REPRO_CHAOS_SEED={seed} ({request.node.nodeid})")
    return seed


@pytest.fixture
def failure_schedule(chaos_seed):
    """Factory for seeded :class:`repro.comm.fault.FailureSchedule`\\ s.

    ``failure_schedule(size)`` draws kill points from this test's
    ``chaos_seed``; keyword args pass through to
    :meth:`FailureSchedule.seeded` (``n_failures``, ``horizon``,
    ``first``).  An explicit ``seed=`` overrides the fixture seed for
    tests that loop over many schedules.
    """
    from repro.comm.fault import FailureSchedule

    def make(size: int, seed: int | None = None, **kwargs) -> FailureSchedule:
        return FailureSchedule.seeded(
            chaos_seed if seed is None else seed, size, **kwargs
        )

    return make


@pytest.fixture
def corruption_schedule(chaos_seed):
    """Factory for seeded :class:`repro.comm.fault.CorruptionSchedule`\\ s.

    ``corruption_schedule(size)`` draws bit-flip points from this test's
    ``chaos_seed``; keyword args pass through to
    :meth:`CorruptionSchedule.seeded` (``n_flips``, ``horizon``,
    ``first``, ``bit``).  An explicit ``seed=`` overrides the fixture
    seed for tests that loop over many schedules.
    """
    from repro.comm.fault import CorruptionSchedule

    def make(size: int, seed: int | None = None, **kwargs) -> CorruptionSchedule:
        return CorruptionSchedule.seeded(
            chaos_seed if seed is None else seed, size, **kwargs
        )

    return make


@pytest.fixture
def rank_groups(monkeypatch):
    """Pin how many groups a grid engine splits a chunk's ranks into.

    ``rank_groups(w)`` opens the per-rank size gate and reports ``w``
    usable CPUs to :mod:`repro.core.parallel`: with ``w > 1`` the ranks
    run as ``min(ranks, w)`` concurrent groups even at test shapes and
    on a one-CPU runner; ``rank_groups(1)`` is the inline reference
    (every rank on the calling thread, in rank order).  A test fixture,
    not a switch — the engine has no argument for this.
    """
    from repro.core import parallel

    def force(w: int) -> None:
        monkeypatch.setattr(parallel, "_CONCURRENT_MIN_ELEMS", 0)
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: w)

    return force


@pytest.fixture
def slab_bytes(monkeypatch):
    """Set the byte budget of one slab buffer of ``FFTMatvec``'s phase
    loops (:data:`repro.core.matvec._SLAB_BYTES`).

    ``slab_bytes(n)`` makes every later apply whose padded axis exceeds
    ``8 * n`` bytes cut it into slabs of ``max(1, n // padded-row
    bytes)`` columns, so test shapes — all of which the shipped 1 MiB
    leaves whole — run many; ``slab_bytes(1)`` is one column per slab
    and a huge value the whole-width reference.  A test fixture, not a
    switch — the engine has no argument for this.
    """
    from repro.core import matvec

    def force(nbytes: int) -> None:
        monkeypatch.setattr(matvec, "_SLAB_BYTES", nbytes)

    return force


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Relative L2 error ||a - b|| / ||b|| (0 if both zero)."""
    denom = float(np.linalg.norm(b))
    if denom == 0.0:
        return float(np.linalg.norm(a))
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b))) / denom
