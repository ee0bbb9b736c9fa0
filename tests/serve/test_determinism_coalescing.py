"""Deterministic and fast requests must never share a coalesced flush."""

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
    def test_mixed_modes_never_share_a_flush(self):
        async def main():
            # Same handle/kind/config, submitted together, room for 4 in
            # one batch: only the reduction mode separates the groups.
            service, handle = make_service(max_block_k=4)
            async with service:
                rng = np.random.default_rng(1)
                payloads = [rng.standard_normal((NT, NM)) for _ in range(4)]
                got = await asyncio.gather(
                    service.matvec(handle, payloads[0], deterministic=True),
                    service.matvec(handle, payloads[1], deterministic=False),
                    service.matvec(handle, payloads[2], deterministic=True),
                    service.matvec(handle, payloads[3], deterministic=False),
                )
            stats = service.stats()
            assert stats.flushes == 2
            assert stats.max_batch == 2
            # Deterministic flushes guarantee each column bitwise-equal
            # to its sequential solo apply; fast flushes only promise
            # "up to rounding".
            ref = FFTMatvec(make_matrix())
            assert np.array_equal(got[0], ref.matvec(payloads[0]))
            assert np.array_equal(got[2], ref.matvec(payloads[2]))
            for j in (1, 3):
                solo = ref.matvec(payloads[j])
                assert np.allclose(got[j], solo, rtol=1e-12)

        asyncio.run(main())

    def test_override_resolves_against_service_default(self):
        async def main():
            # Service default fast: None and explicit False coalesce,
            # explicit True does not.
            service, handle = make_service(max_block_k=4, deterministic=False)
            async with service:
                await asyncio.gather(
                    service.matvec(handle, np.ones((NT, NM))),
                    service.matvec(
                        handle, np.ones((NT, NM)), deterministic=False
                    ),
                    service.matvec(
                        handle, np.ones((NT, NM)), deterministic=True
                    ),
                )
            stats = service.stats()
            assert stats.flushes == 2
            assert stats.max_batch == 2

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

    def test_rmatvec_and_solve_accept_override(self):
        async def main():
            service, handle = make_service()
            async with service:
                d = np.ones((NT, ND))
                got = await service.rmatvec(handle, d, deterministic=False)
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
                batched = await asyncio.gather(
                    *[
                        service.matvec(handle, p, deterministic=True)
                        for p in payloads
                    ]
                )
            assert service.stats().flushes == 1
            solo_service, solo_handle = make_service()
            async with solo_service:
                for p, got in zip(payloads, batched):
                    solo = await solo_service.matvec(
                        solo_handle, p, deterministic=True
                    )
                    assert np.array_equal(got, solo)

        asyncio.run(main())
