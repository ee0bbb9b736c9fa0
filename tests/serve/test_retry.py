"""Serving-layer fault tolerance: flush retries, budgets, stale engines.

The serving satellite of the fault-tolerance PR: a coalesced flush
whose engine dies mid-apply is retried on a rebuilt engine (bitwise
under pairwise reduction), tenants carry a rank-failure budget, and the
EngineCache evicts — never serves — an engine whose grid shrank under
it.
"""

import asyncio

import numpy as np
import pytest

from repro.comm.fault import FailureSchedule, NumericalHealthError, RankFailure
from repro.comm.grid import ProcessGrid
from repro.core.elastic import ElasticEngine
from repro.core.matvec import FFTMatvec
from repro.core.parallel import ParallelFFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.serve.cache import EngineCache
from repro.serve.service import SolverService
from repro.util.validation import ReproError

NT, ND, NM = 6, 4, 8

rng0 = np.random.default_rng(0)
MAT = BlockTriangularToeplitz(rng0.standard_normal((NT, ND, NM)))
M_IN = rng0.standard_normal((NT, NM))


def make_builder(schedule):
    """Engine builder installing `schedule` on every (re)build."""

    def build():
        grid = ProcessGrid(2, 2)
        eng = ParallelFFTMatvec(MAT, grid, reduction="pairwise")
        if schedule is not None:
            eng.install_failure_schedule(schedule)
        return eng

    return build


def make_service(schedule, **kwargs):
    cache = EngineCache(kwargs.pop("budget", 64 * 2**20))
    service = SolverService(cache, **kwargs)
    handle = service.register(MAT, builder=make_builder(schedule), name="op")
    return service, handle


class TestFlushRetry:
    def test_retry_after_rank_death_is_bitwise(self):
        async def main():
            service, handle = make_service(
                FailureSchedule(kills=[(3, 1)]), max_flush_retries=2
            )
            async with service:
                got = await service.matvec(handle, M_IN, tenant="tenant-a")
            ref = make_builder(None)().matvec(M_IN)
            assert np.array_equal(got, ref)
            st = service.stats()
            assert st.rank_failures == 1
            assert st.flush_retries == 1
            assert st.completed == 1
            assert st.failed == 0
            assert service.tenant_failures() == {"tenant-a": 1}

        asyncio.run(main())

    def test_retries_exhausted_fails_the_request(self):
        async def main():
            # The rebuilt engine dies too; one retry is all we allow.
            service, handle = make_service(
                FailureSchedule(kills=[(3, 1), (6, 0)]), max_flush_retries=1
            )
            async with service:
                with pytest.raises(RankFailure):
                    await service.matvec(handle, M_IN, tenant="tenant-c")
            st = service.stats()
            assert st.rank_failures == 2
            assert st.flush_retries == 1
            assert st.failed == 1

        asyncio.run(main())

    def test_tenant_budget_exhausted_fails_fast(self):
        async def main():
            service, handle = make_service(
                FailureSchedule(kills=[(3, 1)]),
                max_flush_retries=2,
                tenant_failure_budget=0,
            )
            async with service:
                with pytest.raises(RankFailure):
                    await service.matvec(handle, M_IN, tenant="tenant-b")
            st = service.stats()
            assert st.rank_failures == 1
            assert st.budget_exhausted == 1
            assert st.failed == 1
            assert st.flush_retries == 0  # nobody left to retry for

        asyncio.run(main())

    def test_budget_spans_requests(self):
        async def main():
            # Budget 1: the first failure is forgiven (retried), the
            # second exhausts the tenant.
            service, handle = make_service(
                FailureSchedule(kills=[(3, 1), (9, 0)]),
                max_flush_retries=3,
                tenant_failure_budget=1,
            )
            async with service:
                first = await service.matvec(handle, M_IN, tenant="t")
                assert np.array_equal(first, make_builder(None)().matvec(M_IN))
                with pytest.raises(RankFailure):
                    await service.matvec(handle, M_IN, tenant="t")
            assert service.tenant_failures()["t"] == 2
            assert service.stats().budget_exhausted == 1

        asyncio.run(main())

    def test_constructor_validation(self):
        cache = EngineCache(1 << 20)
        with pytest.raises(ReproError):
            SolverService(cache, max_flush_retries=-1)
        with pytest.raises(ReproError):
            SolverService(cache, retry_backoff_s=-0.5)
        with pytest.raises(ReproError):
            SolverService(cache, tenant_failure_budget=-1)


class TestCacheStaleness:
    def test_reshaped_engine_is_evicted_not_served(self):
        cache = EngineCache(budget_bytes=1 << 26)

        def build():
            return ElasticEngine(MAT, 4, reduction="pairwise")

        eng = cache.get("el", builder=build)
        assert cache.get("el", builder=build) is eng  # warm hit
        eng.resize(3)  # the grid reshaped out-of-band
        replacement = cache.get("el", builder=build)
        assert replacement is not eng
        st = cache.stats()
        assert st.stale_evictions == 1
        assert st.misses == 2

    def test_update_footprint_rekeys_inflush_recovery(self):
        cache = EngineCache(budget_bytes=1 << 26)
        sched = FailureSchedule(kills=[(5, 2)])

        def build():
            e = ElasticEngine(MAT, 4, reduction="pairwise", max_block_k=2)
            e.install_failure_schedule(sched)
            return e

        eng = cache.get("el", builder=build)
        X = np.random.default_rng(1).standard_normal((NT, NM, 4))
        eng.matmat(X)  # recovers in place onto 3 ranks
        assert eng.report.failures == 1
        cache.update_footprint("el")  # the service does this post-flush
        assert cache.get("el", builder=build) is eng
        assert cache.stats().stale_evictions == 0


class TestNonFiniteConfinement:
    @pytest.mark.parametrize(
        "config,value,phase", [("dddds", 1e38, "unpad"), ("sdddd", 1e39, "pad")]
    )
    def test_a_cast_overflow_fails_only_its_own_request(self, config, value, phase):
        # Every payload is finite, so all four pass submit; the last one's
        # single-precision unpad (dddds) or pad (sdddd) overflows under the
        # abft checks, which report it before numpy's cast warning could.
        rng = np.random.default_rng(7)
        payloads = [rng.standard_normal((NT, NM)) for _ in range(3)]
        payloads.append(np.full((NT, NM), value))

        async def main():
            service = SolverService(EngineCache(64 * 2**20), max_block_k=4)
            handle = service.register(
                MAT, builder=lambda: FFTMatvec(MAT, validate="abft"), name="op"
            )
            async with service:
                got = await asyncio.gather(
                    *(
                        service.matvec(handle, m, config=config, tenant=f"t{i}")
                        for i, m in enumerate(payloads)
                    ),
                    return_exceptions=True,
                )
            return got, service.stats()

        got, st = asyncio.run(main())
        solo = FFTMatvec(MAT, validate="abft")
        for m, col in zip(payloads[:3], got[:3]):
            assert np.array_equal(col, solo.matvec(m, config=config))
        assert isinstance(got[3], NumericalHealthError) and got[3].phase == phase
        # One coalesced flush, split into solo passes after it raised.
        assert (st.flushes, st.max_batch, st.coalesced_requests) == (1, 4, 4)
        assert (st.completed, st.failed, st.flush_retries) == (3, 1, 0)
        assert st.latency["all"].count == 3
