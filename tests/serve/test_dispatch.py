"""The dispatcher contract of ``SolverService``.

One dispatcher feeds the one executor thread: the engine is never idle
with work queued, a batch is bound when the engine frees (not when a
timer fires), and a submission to an idle service dispatches one tick
later so same-tick submissions share a pass.  Every test here decides
what is queued and what is in flight with the ``held_engine`` gate
(``conftest.py``) — none sleeps for a fixed time, none compares walls.
"""

import asyncio
import gc
import time

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.comm.fault import RankFailure
from repro.core.matvec import FFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.serve import (
    EngineCache,
    ServiceClosedError,
    ServiceOverloadedError,
    SolverService,
)
from tests.serve.conftest import HeldEngine, until

NT, ND, NM = 8, 3, 12
MATRIX = BlockTriangularToeplitz.random(NT, ND, NM, rng=np.random.default_rng(0))
REFERENCE = FFTMatvec(MATRIX)
SHAPE = {"matvec": (NT, NM), "rmatvec": (NT, ND)}


def payload(kind, i):
    return np.random.default_rng(i).standard_normal(SHAPE[kind])


def expected(kind, i):
    return getattr(REFERENCE, kind)(payload(kind, i))


def make_service(builder=None, **kwargs):
    service = SolverService(EngineCache(64 * 2**20), **kwargs)
    return service, service.register(MATRIX, builder=builder)


def send(service, handle, kind="matvec", i=0, order=None, **kwargs):
    """One request as a task; appends ``(kind, i)`` to ``order`` when it
    ends, however it ends."""

    async def client():
        try:
            return await getattr(service, kind)(handle, payload(kind, i), **kwargs)
        finally:
            if order is not None:
                order.append((kind, i))

    return asyncio.ensure_future(client())


async def queue_behind_a_held_pass(service, handle, held, requests):
    """Occupy the engine with one matvec blocked at the gate, then queue
    ``requests`` (kwargs of :func:`send`) behind it, in order."""
    blocker = send(service, handle, tenant="blocker")
    await held.wait_held()
    tasks = [send(service, handle, **kw) for kw in requests]
    await until(lambda: service._pending_total == len(requests))
    return blocker, tasks


def test_serving_loops_run_in_asyncio_debug_mode():
    # conftest's autouse fixture: a loop call from the wrong thread
    # raises here under the plain tier-1 command, not only under -X dev.
    async def main():
        return asyncio.get_running_loop().get_debug()

    assert asyncio.run(main())


class TestIdleService:
    def test_lone_request_arms_no_timer(self, monkeypatch):
        async def main():
            service, handle = make_service()
            loop = asyncio.get_running_loop()

            def armed(*args, **kwargs):
                raise AssertionError("a request on an idle service waited on a timer")

            with monkeypatch.context() as patch:
                patch.setattr(loop, "call_later", armed)
                patch.setattr(loop, "call_at", armed)
                got = await service.matvec(handle, payload("matvec", 1))
                again = await service.rmatvec(handle, payload("rmatvec", 2))
            assert np.array_equal(got, expected("matvec", 1))
            assert np.array_equal(again, expected("rmatvec", 2))
            await service.close()

        asyncio.run(main())

    @pytest.mark.parametrize("n, widths", [(2, [2]), (5, [5]), (6, [6]), (14, [6, 6, 2])])
    def test_same_tick_submissions_share_passes(self, held_engine, n, widths):
        async def main():
            held = held_engine(MATRIX)
            held.release()  # only counting passes
            service, handle = make_service(builder=held, max_block_k=6)
            async with service:
                got = await asyncio.gather(
                    *[service.matvec(handle, payload("matvec", i)) for i in range(n)]
                )
            for i, g in enumerate(got):
                assert np.array_equal(g, expected("matvec", i))
            assert held.passes == [("matvec", k) for k in widths]
            stats = service.stats()
            assert (stats.flushes, stats.max_batch) == (len(widths), widths[0])

        asyncio.run(main())


class TestLateBinding:
    @pytest.mark.parametrize("queued", [1, 4, 6, 9])
    def test_arrivals_during_a_pass_ride_the_next_together(self, held_engine, queued):
        async def main():
            held = held_engine(MATRIX)
            service, handle = make_service(builder=held, max_block_k=6)
            blocker, tasks = await queue_behind_a_held_pass(
                service, handle, held, [dict(i=i) for i in range(queued)]
            )
            held.release()
            got = await asyncio.gather(*tasks)
            await blocker
            for i, g in enumerate(got):
                assert np.array_equal(g, expected("matvec", i))
            # Bound when the engine freed: everything that had arrived,
            # up to max_block_k — not one pass per arrival.
            assert held.passes[1] == ("matvec", min(queued, 6))
            assert service.stats().max_batch == min(queued, 6)
            assert sum(k for _, k in held.passes) == queued + 1
            await service.close()

        asyncio.run(main())

    def test_weighted_shares_hold_when_binding_late(self, held_engine):
        async def main():
            held = held_engine(MATRIX)
            service, handle = make_service(
                builder=held, max_block_k=6, tenant_weights={"a": 2.0, "b": 1.0}
            )
            order = []
            requests = [
                dict(i=i, tenant="a" if i < 12 else "b", order=order) for i in range(24)
            ]
            blocker, tasks = await queue_behind_a_held_pass(service, handle, held, requests)
            held.release()
            await asyncio.gather(blocker, *tasks)
            first_pass = [requests[i]["tenant"] for _, i in order[:6]]
            # Weight-2 tenant gets twice the columns of weight-1.
            assert (first_pass.count("a"), first_pass.count("b")) == (4, 2)
            assert held.passes == [("matvec", 1)] + [("matvec", 6)] * 4
            await service.close()

        asyncio.run(main())

    @pytest.mark.parametrize("stream, lone", [("matvec", "rmatvec"), ("rmatvec", "matvec")])
    def test_oldest_head_goes_first_and_neither_group_starves(
        self, held_engine, stream, lone
    ):
        async def main():
            held = held_engine(MATRIX)
            service, handle = make_service(builder=held, max_block_k=2)
            # A steady stream to one group, one request to the other in
            # the middle of it.
            requests = (
                [dict(kind=stream, i=i) for i in range(4)]
                + [dict(kind=lone, i=4)]
                + [dict(kind=stream, i=i) for i in range(5, 9)]
            )
            blocker, tasks = await queue_behind_a_held_pass(service, handle, held, requests)
            held.release()
            got = await asyncio.gather(*tasks)
            await blocker
            for req, g in zip(requests, got):
                assert np.array_equal(g, expected(req["kind"], req["i"]))
            # The lone request waits for the stream's older requests and
            # for none of its younger ones.
            assert held.passes[1:] == [
                (stream, 2), (stream, 2), (lone, 1), (stream, 2), (stream, 2),
            ]
            await service.close()

        asyncio.run(main())


class TestCancellation:
    def test_cancelled_requests_stop_riding_flushes(self, held_engine):
        async def main():
            held = held_engine(MATRIX)
            service, handle = make_service(builder=held, max_inflight_per_tenant=2)
            requests = [dict(i=i, tenant="ab"[i % 2]) for i in range(4)]
            blocker, tasks = await queue_behind_a_held_pass(service, handle, held, requests)
            tasks[1].cancel()
            tasks[2].cancel()
            await asyncio.wait(tasks[1:3])
            # Still queued until their group's next pass is bound ...
            assert service._pending_total == 4
            held.release()
            assert np.array_equal(await tasks[0], expected("matvec", 0))
            assert np.array_equal(await tasks[3], expected("matvec", 3))
            await blocker
            # ... which they do not ride, and nothing leaks.
            assert held.passes == [("matvec", 1), ("matvec", 2)]
            stats = service.stats()
            assert (stats.completed, stats.cancelled, stats.failed) == (3, 2, 0)
            assert tasks[1].cancelled() and tasks[2].cancelled()
            assert service._pending_total == 0 and not service._groups
            assert service._tenant_inflight == {}
            await service.close()

        asyncio.run(main())

    def test_a_batch_that_empties_releases_the_engine(self, held_engine):
        async def main():
            held = held_engine(MATRIX)
            service, handle = make_service(builder=held)
            blocker, tasks = await queue_behind_a_held_pass(
                service, handle, held, [dict(i=i) for i in range(3)]
            )
            for task in tasks:
                task.cancel()
            held.release()
            await blocker
            await service.drain()
            assert held.passes == [("matvec", 1)]  # no pass for nobody
            assert service.stats().cancelled == 3
            assert service._pass is None and service._pending_total == 0
            got = await service.matvec(handle, payload("matvec", 7))
            assert np.array_equal(got, expected("matvec", 7))
            await service.close()

        asyncio.run(main())


class TestReleasingTheEngine:
    def test_close_with_a_pass_in_flight_and_requests_queued(self, held_engine):
        async def main():
            held = held_engine(MATRIX)
            service, handle = make_service(builder=held, max_block_k=2)
            order = []
            blocker, tasks = await queue_behind_a_held_pass(
                service, handle, held, [dict(i=i, order=order) for i in range(3)]
            )
            closing = asyncio.ensure_future(service.close())
            await until(lambda: service._closed)
            with pytest.raises(ServiceClosedError):
                await service.matvec(handle, payload("matvec", 9))
            assert not closing.done()  # work in flight and queued
            held.release()
            await closing
            # close() returned: every future already resolved, once.
            assert blocker.done() and all(t.done() for t in tasks)
            assert sorted(order) == [("matvec", i) for i in range(3)]
            for i, task in enumerate(tasks):
                assert np.array_equal(task.result(), expected("matvec", i))
            assert service.stats().completed == 4
            await service.close()  # idempotent

        asyncio.run(main())

    def test_a_raising_builder_releases_the_engine(self):
        builds = []

        def builder():
            builds.append(len(builds))
            if len(builds) == 1:
                raise RuntimeError("no device today")
            return FFTMatvec(MATRIX)

        async def main():
            service, handle = make_service(builder=builder)
            with pytest.raises(RuntimeError, match="no device"):
                await service.matvec(handle, payload("matvec", 0))
            assert service._pass is None
            got = await service.matvec(handle, payload("matvec", 1))
            assert np.array_equal(got, expected("matvec", 1))
            stats = service.stats()
            assert (stats.failed, stats.completed, stats.flushes) == (1, 1, 1)
            await service.close()

        asyncio.run(main())

    def test_a_retry_backoff_never_idles_the_engine_for_another_group(self):
        log = []  # (method, perf_counter at entry), executor thread

        class DiesOnce(FFTMatvec):
            def matvec(self, m, **kwargs):
                log.append(("matvec", time.perf_counter()))
                if len([1 for name, _ in log if name == "matvec"]) == 1:
                    raise RankFailure(1, "bcast", 3)
                return super().matvec(m, **kwargs)

            def rmatvec(self, d, **kwargs):
                log.append(("rmatvec", time.perf_counter()))
                return super().rmatvec(d, **kwargs)

        async def main():
            backoff = 0.2
            service, handle = make_service(
                builder=lambda: DiesOnce(MATRIX),
                retry_backoff_s=backoff,
            )
            order = []
            dying = send(service, handle, "matvec", 0, order)  # older: goes first
            other = send(service, handle, "rmatvec", 1, order)
            assert np.array_equal(await other, expected("rmatvec", 1))
            assert np.array_equal(await dying, expected("matvec", 0))
            assert order == [("rmatvec", 1), ("matvec", 0)]
            assert [name for name, _ in log] == ["matvec", "rmatvec", "matvec"]
            assert log[2][1] - log[0][1] >= backoff  # the retry did wait its turn out
            stats = service.stats()
            assert (stats.rank_failures, stats.flush_retries) == (1, 1)
            assert (stats.completed, stats.failed) == (2, 0)
            assert service._pending_total == 0 and not service._groups
            await service.close()

        asyncio.run(main())


class DispatchMachine(RuleBasedStateMachine):
    """Submit / cancel / hold / release / close in any order: every
    future resolves exactly once with the right answer, no pass is wider
    than ``max_block_k`` and the queue accounting returns to zero."""

    MAX_K, MAX_PENDING = 3, 6

    def __init__(self):
        super().__init__()
        self.loop = asyncio.new_event_loop()
        self.loop_errors = []
        self.loop.set_exception_handler(lambda loop, ctx: self.loop_errors.append(ctx))
        self.held = HeldEngine(MATRIX)
        self.gate_open = False
        self.service, self.handle = make_service(
            builder=self.held, max_block_k=self.MAX_K, max_pending=self.MAX_PENDING
        )
        self.clients = []  # (task, kind, payload index, resolutions)
        self.closed = False

    def settle(self):
        """Run the loop until nothing more can happen without a rule:
        the service is idle, or a pass is blocked at the closed gate."""

        async def quiescent():
            for _ in range(3):  # start new tasks, tick, bind
                await asyncio.sleep(0)
            await until(
                lambda: self.service._idle.is_set()
                or (not self.gate_open and self.held.waiting)
            )

        self.loop.run_until_complete(quiescent())

    @rule(kind=st.sampled_from(["matvec", "rmatvec"]), tenant=st.sampled_from("ab"))
    def submit(self, kind, tenant):
        i = len(self.clients)
        resolutions = []

        async def client():
            return await getattr(self.service, kind)(
                self.handle, payload(kind, i), tenant=tenant
            )

        task = self.loop.create_task(client())
        task.add_done_callback(resolutions.append)
        self.clients.append((task, kind, i, resolutions))
        self.settle()

    @precondition(lambda self: self.clients)
    @rule(data=st.data())
    def cancel(self, data):
        task = data.draw(st.sampled_from([c[0] for c in self.clients]))
        task.cancel()
        self.settle()

    @rule()
    def hold(self):
        self.held.hold()
        self.gate_open = False

    @rule()
    def release(self):
        self.held.release()
        self.gate_open = True
        self.settle()

    @precondition(lambda self: not self.closed)
    @rule()
    def close(self):
        self.release()  # close() waits for the pass in flight
        self.loop.run_until_complete(self.service.close())
        self.closed = True

    @invariant()
    def accounting_is_exact(self):
        service = self.service
        assert service._pending_total == sum(len(q) for q in service._groups.values())
        assert service._pending_total <= self.MAX_PENDING
        waiting = sum(not task.done() for task, *_ in self.clients)
        assert sum(service._tenant_inflight.values()) == waiting
        assert all(k <= self.MAX_K for _, k in self.held.passes)
        assert not self.loop_errors

    def teardown(self):
        try:
            if not self.closed:
                self.close()
            self.settle()
            service, stats = self.service, self.service.stats()
            for task, kind, i, resolutions in self.clients:
                assert task.done() and len(resolutions) == 1
                if task.cancelled():
                    continue
                exc = task.exception()
                if exc is None:
                    assert np.array_equal(task.result(), expected(kind, i))
                else:  # refused at the door, never half-served
                    assert isinstance(exc, (ServiceClosedError, ServiceOverloadedError))
            assert service._pending_total == 0 and not service._groups
            assert service._pass is None and service._tenant_inflight == {}
            assert stats.submitted == stats.completed + stats.cancelled
            assert stats.failed == 0
        finally:
            self.held.release()
            self.loop.close()
        gc.collect()  # a flush task that died would report here
        assert not self.loop_errors


TestDispatchMachine = DispatchMachine.TestCase
TestDispatchMachine.settings = settings(
    max_examples=50, stateful_step_count=20, deadline=None
)
