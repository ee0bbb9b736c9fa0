"""Tests for SolverService request handling, backpressure and fairness."""

import asyncio
import time
from collections import deque

import numpy as np
import pytest

from repro.core.matvec import FFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.inverse.cg import conjugate_gradient
from repro.core.operator import (
    ForwardOperator,
    GaussNewtonHessian,
    IdentityOperator,
)
from repro.serve import (
    DeadlineExpiredError,
    EngineCache,
    LatencyHistogram,
    ServiceClosedError,
    ServiceOverloadedError,
    SolveOptions,
    SolverService,
    TenantThrottledError,
    UnknownOperatorError,
)
from repro.serve.service import _Request
from repro.util.validation import ReproError
from tests.serve.conftest import until

NT, ND, NM = 8, 3, 12


def make_matrix(seed=0):
    rng = np.random.default_rng(seed)
    return BlockTriangularToeplitz.random(NT, ND, NM, rng=rng)


def make_service(builder=None, **kwargs):
    cache = EngineCache(kwargs.pop("budget", 64 * 2**20))
    service = SolverService(cache, **kwargs)
    handle = service.register(make_matrix(), builder=builder)
    return service, handle


def submit(service, handle, scale=1.0, **kwargs):
    """One matvec request as a task (submitted on the next loop tick)."""
    return asyncio.ensure_future(
        service.matvec(handle, scale * np.ones((NT, NM)), **kwargs)
    )


class TestRequestBasics:
    def test_matvec_matches_direct_engine(self):
        async def main():
            service, handle = make_service()
            async with service:
                m = np.arange(NT * NM, dtype=np.float64).reshape(NT, NM)
                got = await service.matvec(handle, m)
                ref = FFTMatvec(make_matrix()).matvec(m)
                assert np.array_equal(got, ref)

        asyncio.run(main())

    def test_flat_payload_reshaped(self):
        async def main():
            service, handle = make_service()
            async with service:
                m = np.ones(NT * NM)
                got = await service.matvec(handle, m)
                assert got.shape == (NT, ND)

        asyncio.run(main())

    def test_bad_payload_shape_raises(self):
        async def main():
            service, handle = make_service()
            async with service:
                with pytest.raises(ReproError):
                    await service.matvec(handle, np.ones((NT, NM + 1)))

        asyncio.run(main())

    def test_unknown_handle_raises(self):
        async def main():
            service, _ = make_service()
            async with service:
                with pytest.raises(UnknownOperatorError):
                    await service.matvec("ghost", np.ones((NT, NM)))

        asyncio.run(main())

    def test_register_is_content_addressed(self):
        service, handle = make_service()
        again = service.register(make_matrix())
        assert again == handle  # same kernel -> same handle -> coalescible
        other = service.register(make_matrix(seed=1))
        assert other != handle

    def test_solve_matches_solo_cg(self):
        async def main():
            service, handle = make_service()
            async with service:
                d = np.random.default_rng(3).standard_normal((NT, ND))
                opts = SolveOptions(tol=1e-10)
                got = await service.solve(handle, d, options=opts)
                engine = FFTMatvec(make_matrix())
                forward = ForwardOperator(engine)
                hess = GaussNewtonHessian(
                    forward,
                    noise_std=opts.noise_std,
                    reg=opts.ridge * IdentityOperator(forward.in_shape),
                )
                rhs = engine.rmatvec(d) / opts.noise_std**2
                ref = conjugate_gradient(hess.apply, rhs, tol=opts.tol).x
                np.testing.assert_allclose(got, ref, rtol=1e-8, atol=1e-12)

        asyncio.run(main())


class TestLifecycle:
    def test_closed_service_rejects(self):
        async def main():
            service, handle = make_service()
            await service.close()
            with pytest.raises(ServiceClosedError):
                await service.matvec(handle, np.ones((NT, NM)))
            await service.close()  # idempotent

        asyncio.run(main())

    def test_drain_waits_for_queued_and_in_flight(self, held_engine):
        async def main():
            held = held_engine(make_matrix())
            service, handle = make_service(builder=held)
            in_flight = submit(service, handle)
            await held.wait_held()
            queued = submit(service, handle)
            drained = asyncio.ensure_future(service.drain())
            await until(lambda: service._pending_total == 1)
            assert not drained.done()
            held.release()
            await drained
            # Nothing left to wait for: both results are already set.
            assert service._pending_total == 0 and service._pass is None
            assert in_flight.done() and queued.done()
            await service.drain()  # idle: returns at once
            await service.close()

        asyncio.run(main())


class TestBackpressure:
    def test_overload_sheds(self, held_engine):
        async def main():
            held = held_engine(make_matrix())
            service, handle = make_service(builder=held, max_pending=2)
            tasks = [submit(service, handle)]
            await held.wait_held()  # in flight: no longer counted as queued
            tasks += [submit(service, handle) for _ in range(2)]
            await until(lambda: service._pending_total == 2)
            with pytest.raises(ServiceOverloadedError):
                await service.matvec(handle, np.ones((NT, NM)))
            assert service.stats().rejected_overload == 1
            held.release()
            await asyncio.gather(*tasks)
            await service.close()

        asyncio.run(main())

    def test_tenant_cap_throttles_only_the_offender(self, held_engine):
        async def main():
            held = held_engine(make_matrix())
            service, handle = make_service(
                builder=held, max_inflight_per_tenant=1
            )
            hog = submit(service, handle, tenant="hog")
            await held.wait_held()
            with pytest.raises(TenantThrottledError):
                await service.matvec(handle, np.ones((NT, NM)), tenant="hog")
            # Another tenant is unaffected by the hog's cap.
            polite = submit(service, handle, tenant="polite")
            held.release()
            await asyncio.gather(hog, polite)
            assert service.stats().rejected_tenant == 1
            await service.close()

        asyncio.run(main())

    def test_constructor_validation(self):
        cache = EngineCache(2**20)
        with pytest.raises(ReproError):
            SolverService(cache, max_block_k=0)
        with pytest.raises(ReproError):
            SolverService(cache, max_pending=0)
        with pytest.raises(ReproError):
            SolverService(cache, tenant_weights={"a": 0.0})

    def test_window_is_deprecated_and_ignored(self):
        # The one place that still passes window=: it is validated, then
        # warned about (blaming the caller's line) and read by nothing.
        cache = EngineCache(2**20)
        with pytest.raises(ReproError):
            SolverService(cache, window=-1.0)
        with pytest.warns(DeprecationWarning, match="window") as caught:
            service = SolverService(cache, window=10.0)
        assert caught[0].filename == __file__
        assert not hasattr(service, "window")

        async def main():
            handle = service.register(make_matrix())
            async with service:
                return await service.matvec(handle, np.ones((NT, NM)))

        assert asyncio.run(main()).shape == (NT, ND)  # no 10 s wait


class TestDeadlines:
    @staticmethod
    async def _queue_past_deadline(service, handle, held, deadline_s=0.01):
        """A request held in the queue (behind a pass blocked at the
        gate) until its deadline has passed."""
        blocker = submit(service, handle)
        await held.wait_held()
        doomed = submit(service, handle, deadline_s=deadline_s)
        await until(lambda: service._pending_total == 1)
        expired = time.perf_counter() + deadline_s
        await until(lambda: time.perf_counter() > expired)
        return blocker, doomed

    def test_expired_request_dropped_before_flush(self, held_engine):
        async def main():
            held = held_engine(make_matrix())
            service, handle = make_service(builder=held)
            blocker, doomed = await self._queue_past_deadline(service, handle, held)
            held.release()
            with pytest.raises(DeadlineExpiredError):
                await doomed
            await blocker
            assert service.stats().deadline_expired == 1
            assert held.passes == [("matvec", 1)]  # nobody rode a second pass
            await service.close()

        asyncio.run(main())

    def test_expired_request_does_not_starve_groupmates(self, held_engine):
        async def main():
            held = held_engine(make_matrix())
            service, handle = make_service(builder=held)
            blocker, doomed = await self._queue_past_deadline(service, handle, held)
            alive = submit(service, handle, scale=2.0)
            await until(lambda: service._pending_total == 2)
            held.release()
            with pytest.raises(DeadlineExpiredError):
                await doomed
            got = await alive
            ref = FFTMatvec(make_matrix()).matvec(2.0 * np.ones((NT, NM)))
            assert np.array_equal(got, ref)
            await blocker
            assert service.stats().deadline_expired == 1
            assert service.stats().completed == 2
            assert held.passes == [("matvec", 1), ("matvec", 1)]
            await service.close()

        asyncio.run(main())

    def test_generous_deadline_completes(self):
        async def main():
            service, handle = make_service()
            async with service:
                got = await service.matvec(
                    handle, np.ones((NT, NM)), deadline_s=30.0
                )
                assert got.shape == (NT, ND)
            assert service.stats().deadline_expired == 0

        asyncio.run(main())

    def test_deadline_validation(self):
        async def main():
            service, handle = make_service()
            async with service:
                with pytest.raises(ReproError):
                    await service.matvec(
                        handle, np.ones((NT, NM)), deadline_s=0.0
                    )
                with pytest.raises(ReproError):
                    await service.rmatvec(
                        handle, np.ones((NT, ND)), deadline_s=-1.0
                    )

        asyncio.run(main())


class TestCoalescingMechanics:
    def test_full_group_flushes_as_one_pass(self):
        async def main():
            service, handle = make_service(max_block_k=4)
            async with service:
                rng = np.random.default_rng(0)
                payloads = [rng.standard_normal((NT, NM)) for _ in range(4)]
                await asyncio.gather(
                    *[service.matvec(handle, p) for p in payloads]
                )
            stats = service.stats()
            assert stats.flushes == 1
            assert stats.max_batch == 4
            assert stats.coalesced_requests == 4
            assert stats.mean_batch == pytest.approx(4.0)

        asyncio.run(main())

    def test_same_tick_partial_group_rides_one_pass(self):
        async def main():
            service, handle = make_service(max_block_k=16)
            async with service:
                await asyncio.gather(
                    *[
                        service.matvec(handle, np.ones((NT, NM)))
                        for _ in range(3)
                    ]
                )
            stats = service.stats()
            assert stats.completed == 3
            assert (stats.flushes, stats.max_batch) == (1, 3)

        asyncio.run(main())

    def test_kinds_and_configs_do_not_mix(self):
        async def main():
            service, handle = make_service(max_block_k=8)
            async with service:
                await asyncio.gather(
                    service.matvec(handle, np.ones((NT, NM))),
                    service.rmatvec(handle, np.ones((NT, ND))),
                    service.matvec(handle, np.ones((NT, NM)), config="sssss"),
                )
            # Three incompatible groups -> three engine passes.
            assert service.stats().flushes == 3

        asyncio.run(main())


class TestWeightedFairness:
    def _requests(self, loop, tenants):
        reqs = deque()
        for seq, tenant in enumerate(tenants, start=1):
            reqs.append(
                _Request(
                    tenant=tenant,
                    payload=np.zeros((NT, NM)),
                    future=loop.create_future(),
                    t_submit=0.0,
                    seq=seq,
                )
            )
        return reqs

    def test_weighted_shares_under_contention(self):
        async def main():
            service, _ = make_service(
                max_block_k=6, tenant_weights={"a": 2.0, "b": 1.0}
            )
            loop = asyncio.get_running_loop()
            group = self._requests(loop, ["a"] * 12 + ["b"] * 12)
            take = service._select(group)
            counts = {t: sum(r.tenant == t for r in take) for t in "ab"}
            # Weight-2 tenant gets twice the columns of weight-1.
            assert counts == {"a": 4, "b": 2}
            assert len(group) == 18  # the rest stay queued
            await service.close()

        asyncio.run(main())

    def test_fifo_within_tenant(self):
        async def main():
            service, _ = make_service(max_block_k=3)
            loop = asyncio.get_running_loop()
            group = self._requests(loop, ["a"] * 5)
            take = service._select(group)
            assert [r.seq for r in take] == [1, 2, 3]
            await service.close()

        asyncio.run(main())

    def test_no_starvation_round_robin(self):
        async def main():
            service, _ = make_service(max_block_k=4)
            loop = asyncio.get_running_loop()
            group = self._requests(loop, ["a", "a", "a", "a", "a", "b", "c"])
            take = service._select(group)
            tenants = [r.tenant for r in take]
            # Equal weights: every waiting tenant gets a column before
            # any tenant gets a second.
            assert set(tenants[:3]) == {"a", "b", "c"}
            await service.close()

        asyncio.run(main())

    def test_uncontended_group_taken_whole(self):
        async def main():
            service, _ = make_service(max_block_k=8)
            loop = asyncio.get_running_loop()
            group = self._requests(loop, ["a", "b", "a"])
            take = service._select(group)
            assert [r.seq for r in take] == [1, 2, 3]
            assert not group
            await service.close()

        asyncio.run(main())


class TestLatencyHistogram:
    """``ServiceStats.latency``: bounded however long the service runs."""

    def test_constant_size_and_percentiles_within_a_bucket(self):
        rng = np.random.default_rng(20261006)
        # 1e5 latencies over five decades (30 us ... 3 s), heavy-tailed.
        samples = np.exp(rng.normal(np.log(4e-3), 1.7, size=100_000)).clip(3e-5, 3.0)
        hist = LatencyHistogram()
        size = len(hist.counts)
        for s in samples:
            hist.add(float(s))
        assert len(hist.counts) == size == LatencyHistogram.BUCKETS
        assert hist.count == sum(hist.counts) == samples.size
        assert hist.sum == pytest.approx(samples.sum(), rel=1e-9)
        assert (hist.min, hist.max) == (samples.min(), samples.max())
        for q in (1, 25, 50, 90, 99, 99.9, 100):
            exact = float(np.percentile(samples, q))
            assert hist.percentile(q) == pytest.approx(exact, rel=LatencyHistogram.WIDTH), q
        assert np.isnan(LatencyHistogram().percentile(50))

    def test_out_of_range_latencies_clamp_to_the_end_buckets(self):
        hist = LatencyHistogram()
        for s in (0.0, 1e-9, 1e7):
            hist.add(s)
        assert hist.counts[0] == 2 and hist.counts[-1] == 1
        first_edge = LatencyHistogram.FLOOR_S * (1.0 + LatencyHistogram.WIDTH)
        assert hist.percentile(50) == pytest.approx(first_edge)
        assert hist.percentile(100) == 1e7  # clipped to the observed range

    def test_service_records_per_kind_and_overall(self):
        async def main():
            service, handle = make_service()
            async with service:
                m = np.ones((NT, NM))
                for _ in range(3):
                    await service.matvec(handle, m)
                await service.rmatvec(handle, np.ones((NT, ND)))
            latency = service.stats().latency
            assert {k: h.count for k, h in latency.items()} == {
                "matvec": 3, "rmatvec": 1, "all": 4,
            }
            assert 0 < latency["all"].min <= latency["all"].percentile(50) <= latency["all"].max

        asyncio.run(main())

    def test_latency_splits_into_queue_wait_and_exec(self):
        async def main():
            service, handle = make_service()
            async with service:
                m = np.ones((NT, NM))
                await asyncio.gather(*[service.matvec(handle, m) for _ in range(3)])
                await service.rmatvec(handle, np.ones((NT, ND)))
            stats = service.stats()
            counts = lambda hists: {k: h.count for k, h in hists.items()}  # noqa: E731
            # One queue wait per served request, one exec per engine pass.
            assert counts(stats.queue_wait) == counts(stats.latency) == {
                "matvec": 3, "rmatvec": 1, "all": 4,
            }
            assert counts(stats.exec) == {"matvec": 1, "rmatvec": 1, "all": 2}
            assert stats.exec["all"].count == stats.flushes
            # The two parts of the lone rmatvec add up to its latency.
            parts = stats.queue_wait["rmatvec"].sum + stats.exec["rmatvec"].sum
            assert parts == pytest.approx(stats.latency["rmatvec"].sum)

        asyncio.run(main())
