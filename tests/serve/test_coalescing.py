"""Property-style coalescing tests: batching must be invisible.

Any interleaving of concurrent requests through the coalescing service
must return, per request, exactly the bytes a sequential engine apply
would have produced — regardless of how the coalescer happened to slice
the stream into blocked passes, which tenants shared a batch, or which
engine (single-device or SPMD grid) backs the operator.  Solves are
checked against the tolerance contract (block CG shares the
Hessian passes but keeps per-column stopping; see ``docs/SERVING.md``).
"""

import asyncio

import numpy as np
import pytest

from repro.comm.grid import ProcessGrid
from repro.core.matvec import FFTMatvec
from repro.core.operator import (
    ForwardOperator,
    GaussNewtonHessian,
    IdentityOperator,
)
from repro.core.parallel import ParallelFFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.inverse.cg import conjugate_gradient
from repro.serve import EngineCache, SolveOptions, SolverService

NT, ND, NM = 8, 4, 12


def make_matrix(seed=0):
    rng = np.random.default_rng(seed)
    return BlockTriangularToeplitz.random(NT, ND, NM, rng=rng)


def single_builder(matrix):
    return lambda: FFTMatvec(matrix)

def grid_builder(matrix):
    return lambda: ParallelFFTMatvec(
        matrix, ProcessGrid(2, 2)
    )


BUILDERS = {"single": single_builder, "grid": grid_builder}


def random_requests(rng, n, configs=("ddddd", "dsssd")):
    """A random stream of (kind, tenant, config, payload) requests."""
    stream = []
    for _ in range(n):
        kind = rng.choice(["matvec", "rmatvec"])
        nx = NM if kind == "matvec" else ND
        stream.append(
            (
                kind,
                f"tenant{int(rng.integers(3))}",
                str(rng.choice(list(configs))),
                rng.standard_normal((NT, nx)),
            )
        )
    return stream


async def serve_all(service, handle, stream, jitter_rng=None):
    """Submit the whole stream concurrently (optionally with jitter)."""

    async def one(kind, tenant, config, payload):
        if jitter_rng is not None:
            await asyncio.sleep(float(jitter_rng.uniform(0, 0.003)))
        op = service.matvec if kind == "matvec" else service.rmatvec
        return await op(handle, payload, config=config, tenant=tenant)

    return await asyncio.gather(*[one(*req) for req in stream])


class TestInterleavingsBitwise:
    @pytest.mark.parametrize("engine_kind", ["single", "grid"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_any_interleaving_matches_sequential(self, engine_kind, seed):
        rng = np.random.default_rng(seed)
        matrix = make_matrix()
        stream = random_requests(rng, 24)
        reference = BUILDERS[engine_kind](matrix)()

        async def main():
            cache = EngineCache(256 * 2**20)
            service = SolverService(cache, max_block_k=5)
            handle = service.register(
                matrix, builder=BUILDERS[engine_kind](matrix)
            )
            async with service:
                return await serve_all(
                    service, handle, stream, jitter_rng=rng
                ), service.stats()

        results, stats = asyncio.run(main())
        assert stats.coalesced_requests > 0  # batches actually formed
        for (kind, _t, config, payload), got in zip(stream, results):
            ref = (
                reference.matvec(payload, config=config)
                if kind == "matvec"
                else reference.rmatvec(payload, config=config)
            )
            assert np.array_equal(got, ref), (
                f"{kind} under {engine_kind} engine lost bitwise identity"
            )

    def test_burst_exactly_max_block_k_multiple(self):
        # Deterministic slicing: 3 full batches, still bitwise.
        matrix = make_matrix(seed=5)
        rng = np.random.default_rng(7)
        payloads = [rng.standard_normal((NT, NM)) for _ in range(12)]
        reference = FFTMatvec(matrix)

        async def main():
            cache = EngineCache(128 * 2**20)
            service = SolverService(cache, max_block_k=4)
            handle = service.register(matrix)
            async with service:
                return await asyncio.gather(
                    *[service.matvec(handle, p) for p in payloads]
                )

        results = asyncio.run(main())
        for payload, got in zip(payloads, results):
            assert np.array_equal(got, reference.matvec(payload))


class TestCoalescedSolves:
    def test_concurrent_solves_match_solo_cg(self):
        matrix = make_matrix(seed=9)
        rng = np.random.default_rng(11)
        data = [rng.standard_normal((NT, ND)) for _ in range(6)]
        opts = SolveOptions(tol=1e-10)

        engine = FFTMatvec(matrix)
        forward = ForwardOperator(engine)
        hess = GaussNewtonHessian(
            forward,
            noise_std=opts.noise_std,
            reg=opts.ridge * IdentityOperator(forward.in_shape),
        )

        async def main():
            cache = EngineCache(128 * 2**20)
            service = SolverService(cache, max_block_k=6)
            handle = service.register(matrix)
            async with service:
                return await asyncio.gather(
                    *[
                        service.solve(
                            handle, d, tenant=f"tenant{i % 2}", options=opts
                        )
                        for i, d in enumerate(data)
                    ]
                ), service.stats()

        results, stats = asyncio.run(main())
        assert stats.flushes < len(data)  # solves actually coalesced
        # The contract is the tolerance, not the rounding: a solo solve may
        # iterate lowered (vector CG only), so the coalesced block solve
        # and the solo one each meet the normal equations to tol.
        for d, got in zip(data, results):
            rhs = engine.rmatvec(d) / opts.noise_std**2
            ref = conjugate_gradient(hess.apply, rhs, tol=opts.tol).x
            for x in (got, ref):
                rel = np.linalg.norm(hess.apply(x) - rhs) / np.linalg.norm(rhs)
                assert rel <= opts.tol

    def test_lowered_solo_and_coalesced_block_meet_the_same_tolerance(self):
        # (32, 24, 96): a 1.2 MB spectrum, so a solo solve iterates at
        # ddsdd with double residual replacement; the block solve is exact.
        matrix = BlockTriangularToeplitz.random(32, 24, 96, rng=np.random.default_rng(17))
        d = np.random.default_rng(19).standard_normal((32, 24))
        opts = SolveOptions()
        engine = FFTMatvec(matrix)
        forward = ForwardOperator(engine)
        hess = GaussNewtonHessian(forward, reg=opts.ridge * IdentityOperator(forward.in_shape))

        async def main():
            service = SolverService(EngineCache(128 * 2**20), max_block_k=4)
            handle = service.register(matrix)
            async with service:
                solo = await service.solve(handle, d, options=opts)
                block = await asyncio.gather(
                    *[service.solve(handle, d, options=opts) for _ in range(3)]
                )
                return solo, block, service.stats()

        solo, block, stats = asyncio.run(main())
        assert stats.flushes == 2  # one solo pass, one coalesced block pass
        rhs = engine.rmatvec(d)
        for x in (solo, *block):
            assert np.linalg.norm(hess.apply(x) - rhs) <= opts.tol * np.linalg.norm(rhs)
        assert not np.array_equal(solo, block[0])  # tolerance-, not rounding-equivalent

    def test_mixed_solve_options_do_not_coalesce(self):
        matrix = make_matrix(seed=13)
        rng = np.random.default_rng(13)
        d = rng.standard_normal((NT, ND))

        async def main():
            cache = EngineCache(128 * 2**20)
            service = SolverService(cache, max_block_k=8)
            handle = service.register(matrix)
            async with service:
                return await asyncio.gather(
                    service.solve(handle, d, options=SolveOptions(tol=1e-6)),
                    service.solve(handle, d, options=SolveOptions(tol=1e-10)),
                ), service.stats()

        (loose, tight), stats = asyncio.run(main())
        assert stats.flushes == 2  # different options -> different groups
        assert loose.shape == tight.shape == (NT, NM)
