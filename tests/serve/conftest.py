"""Shared serving-test helpers: asyncio debug mode and an engine the
test can hold.

Every serving test runs its event loops in asyncio's debug mode (the
autouse ``asyncio_debug`` fixture), so a loop call from the wrong thread
raises and a slow callback is logged, under the plain tier-1 command.

The dispatcher of :class:`~repro.serve.SolverService` is work
conserving — nothing queues while the engine is free — so a test that
needs requests *queued* must keep the engine busy.  ``held_engine``
does that without a sleep or a timer anywhere: the engine it builds
blocks the service's executor thread on a ``threading.Event`` at the
start of every pass until the test releases it.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import List, Tuple

import pytest

from repro.core.matvec import FFTMatvec


@pytest.fixture(autouse=True)
def asyncio_debug(monkeypatch):
    """Every event loop a serving test creates starts in debug mode."""
    monkeypatch.setenv("PYTHONASYNCIODEBUG", "1")


class HeldEngine:
    """Builder for ``SolverService.register(builder=...)`` whose engine
    waits at a gate at the start of every pass.

    ``passes`` lists every pass that reached the engine, in order, as
    ``(method, columns)``.  The gate starts closed; :meth:`release`
    opens it (passes then run freely), :meth:`hold` closes it again.
    """

    TIMEOUT_S = 30.0  # a forgotten release fails the pass instead of hanging the suite

    def __init__(self, matrix) -> None:
        self.matrix = matrix
        self.passes: List[Tuple[str, int]] = []
        self.waiting = False  # a pass is blocked at the gate right now
        self._open = threading.Event()

    def __call__(self) -> FFTMatvec:
        return _GatedEngine(self.matrix, holder=self)

    def hold(self) -> None:
        self._open.clear()

    def release(self) -> None:
        self._open.set()

    def _enter(self, method: str, columns: int) -> None:  # executor thread
        self.passes.append((method, columns))
        self.waiting = True
        try:
            if not self._open.wait(self.TIMEOUT_S):
                raise RuntimeError("held_engine: the test never released the gate")
        finally:
            self.waiting = False

    async def wait_held(self) -> None:
        """Yield to the event loop until a pass is blocked at the gate
        (its batch is bound; later submissions can only queue)."""
        await until(lambda: self.waiting)


class _GatedEngine(FFTMatvec):
    """A subclass, not a wrapper: the engine cache sizes and releases
    engines by their spectrum / arena attributes."""

    def __init__(self, *args, holder: HeldEngine, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._holder = holder

    def matvec(self, m, **kwargs):
        self._holder._enter("matvec", 1)
        return super().matvec(m, **kwargs)

    def rmatvec(self, d, **kwargs):
        self._holder._enter("rmatvec", 1)
        return super().rmatvec(d, **kwargs)

    def matmat(self, M, **kwargs):
        self._holder._enter("matvec", M.shape[-1])
        return super().matmat(M, **kwargs)

    def rmatmat(self, D, **kwargs):
        self._holder._enter("rmatvec", D.shape[-1])
        return super().rmatmat(D, **kwargs)


async def until(predicate, timeout_s: float = HeldEngine.TIMEOUT_S) -> None:
    """Yield to the event loop until ``predicate()`` holds."""
    give_up = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < give_up, "condition never held"
        await asyncio.sleep(0)


@pytest.fixture
def held_engine():
    """``held_engine(matrix)`` -> a :class:`HeldEngine` builder; every
    gate is opened at teardown so no executor thread stays blocked."""
    made: List[HeldEngine] = []

    def make(matrix) -> HeldEngine:
        made.append(HeldEngine(matrix))
        return made[-1]

    yield make
    for holder in made:
        holder.release()
