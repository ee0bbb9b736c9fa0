"""A deterministic service's coalesced flushes are bitwise its solo
applies; a fast one's match them to rounding."""

import asyncio

import numpy as np
import pytest

from repro.core.matvec import FFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.serve import EngineCache, SolverService

NT, ND, NM = 8, 3, 12


def make_matrix(seed=0):
    rng = np.random.default_rng(seed)
    return BlockTriangularToeplitz.random(NT, ND, NM, rng=rng)


def make_service(reduction="fast", **kwargs):
    cache = EngineCache(kwargs.pop("budget", 64 * 2**20))
    service = SolverService(cache, **kwargs)
    handle = service.register(
        make_matrix(),
        builder=lambda: FFTMatvec(make_matrix(), reduction=reduction),
    )
    return service, handle


class TestDeterminismCoalescing:
    def test_fast_service_batch_matches_solo_to_rounding(self):
        async def main():
            service, handle = make_service(max_block_k=4, deterministic=False)
            async with service:
                rng = np.random.default_rng(1)
                payloads = [rng.standard_normal((NT, NM)) for _ in range(4)]
                got = await asyncio.gather(*[service.matvec(handle, p) for p in payloads])
            stats = service.stats()
            assert stats.flushes == 1 and stats.max_batch == 4
            ref = FFTMatvec(make_matrix())
            for p, g in zip(payloads, got):
                assert np.allclose(g, ref.matvec(p), rtol=1e-12)

        asyncio.run(main())

    @pytest.mark.parametrize("reduction", ["fast", "pairwise"])
    def test_default_deterministic_batch_is_bitwise_solo(self, reduction):
        async def main():
            # Service default is deterministic: a coalesced batch must
            # hand every caller the bits of its solo sequential apply —
            # on a pairwise engine too, whose fixed tree (not the
            # per-column GEMV) is what a solo apply runs.
            service, handle = make_service(reduction, max_block_k=4)
            rng = np.random.default_rng(3)
            payloads = [rng.standard_normal((NT, NM)) for _ in range(3)]
            async with service:
                got = await asyncio.gather(
                    *[service.matvec(handle, p) for p in payloads]
                )
            assert service.stats().flushes == 1
            ref = FFTMatvec(make_matrix(), reduction=reduction)
            for p, g in zip(payloads, got):
                assert np.array_equal(g, ref.matvec(p))

        asyncio.run(main())

    def test_fast_service_solo_rmatvec_is_the_engines(self):
        async def main():
            service, handle = make_service(deterministic=False)
            async with service:
                d = np.ones((NT, ND))
                got = await service.rmatvec(handle, d)
                ref = FFTMatvec(make_matrix()).rmatvec(d)
                assert np.array_equal(got, ref)

        asyncio.run(main())

    def test_coalesced_block_bitwise_equals_looped(self):
        async def main():
            # The point of pairwise serving: joining a batch must not
            # change a deterministic caller's bits.
            service, handle = make_service(max_block_k=4)
            rng = np.random.default_rng(5)
            payloads = [rng.standard_normal((NT, NM)) for _ in range(4)]
            async with service:
                batched = await asyncio.gather(*[service.matvec(handle, p) for p in payloads])
            assert service.stats().flushes == 1
            solo_service, solo_handle = make_service()
            async with solo_service:
                for p, got in zip(payloads, batched):
                    solo = await solo_service.matvec(solo_handle, p)
                    assert np.array_equal(got, solo)

        asyncio.run(main())
