"""Allocation-regression suite for the workspace arena.

The arena contract has three legs, each a test class here:

* **Warm equals cold** — matvec/matmat/rmatmat results of a warm engine
  (``warm_up``: stale arena contents, rebuilt records) must equal a
  fresh engine's *bitwise*, and both the dense product of
  ``core/toeplitz.py`` to the config's tolerance, on the single-device
  engine and on a 2x2 grid including skewed extents and mixed-precision
  configs.  What an earlier apply left in the arena never shows.
* **Zero growth** — after a one-apply warmup, 50 further applies must
  not allocate a single new arena buffer (``alloc_count`` frozen).
* **Allocator registration** — every arena buffer is registered with the
  device's :class:`~repro.gpu.memory.DeviceAllocator`, so the modeled
  peak matches the arena's registered footprint and ``release()``
  leaves no leaks.

Plus unit tests for the :class:`~repro.util.workspace.Workspace`
checkout/reset discipline itself.
"""

import numpy as np
import pytest

from repro.comm.grid import ProcessGrid
from repro.comm.netmodel import FRONTIER_NETWORK
from repro.comm.partition import skewed_extents
from repro.core.elastic import ElasticEngine
from repro.core.matvec import FFTMatvec
from repro.core.parallel import ParallelFFTMatvec
from repro.core.precision import PrecisionConfig
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.device import SimulatedDevice
from repro.gpu.specs import MI300X
from repro.serve import EngineCache, SolverService
from repro.util.dtypes import machine_eps
from repro.util.validation import ReproError
from repro.util.workspace import Workspace
from tests.conftest import rel_err, warm_up

NT, ND, NM, K = 16, 8, 24, 10
CONFIGS = ["ddddd", "sssss", "dsdsd", "sdsds"]


@pytest.fixture
def rng():
    return np.random.default_rng(20260729)


@pytest.fixture
def matrix(rng):
    return BlockTriangularToeplitz.random(NT, ND, NM, rng=rng, decay=0.08)


def total_allocs(engine: ParallelFFTMatvec) -> int:
    return engine.workspace.alloc_count + sum(
        e.workspace.alloc_count for e in engine.engines.values()
    )


def assert_dense(matrix, config, got, v, adjoint=False):
    """``got`` is the dense product of ``v`` (a vector or a block) to the
    tolerance of ``config``'s weakest phase."""
    dense = matrix.rmatvec_reference if adjoint else matrix.matvec_reference
    want = dense(v) if v.ndim == 2 else np.stack(
        [dense(v[:, :, j]) for j in range(v.shape[2])], axis=-1
    )
    tol = 1e3 * machine_eps(min(PrecisionConfig.parse(config).phases))
    assert rel_err(got, want) < tol


class TestWorkspaceUnit:
    def test_checkout_is_stable_across_resets(self):
        ws = Workspace()
        a = ws.checkout("pad", (4, 8), np.float64)
        ws.reset()
        b = ws.checkout("pad", (4, 8), np.float64)
        assert a is b
        assert ws.alloc_count == 1 and ws.checkout_count == 2

    def test_repeated_checkout_hands_distinct_buffers(self):
        # Ping-pong: two checkouts of one key between resets must not
        # alias — that is the per-apply discipline.
        ws = Workspace()
        a = ws.checkout("reorder", (4,), np.float64)
        b = ws.checkout("reorder", (4,), np.float64)
        assert a is not b
        ws.reset()
        assert ws.checkout("reorder", (4,), np.float64) is a
        assert ws.checkout("reorder", (4,), np.float64) is b
        assert ws.alloc_count == 2

    def test_persistent_buffer_survives_reset(self):
        ws = Workspace()
        a = ws.buffer("pay[0]", (3, 3), np.float32)
        ws.reset()
        assert ws.buffer("pay[0]", (3, 3), np.float32) is a

    def test_keys_include_shape_and_dtype(self):
        ws = Workspace()
        a = ws.checkout("x", (4,), np.float64)
        b = ws.checkout("x", (5,), np.float64)
        c = ws.checkout("x", (4,), np.float32)
        assert a is not b and a is not c
        assert ws.buffer_count == 3

    def test_allocator_registration_and_release(self):
        alloc = SimulatedDevice(MI300X).allocator
        ws = Workspace(allocator=alloc, name="t")
        ws.checkout("a", (100,), np.float64)
        ws.checkout("b", (50,), np.complex128)
        assert alloc.peak == ws.registered_bytes
        assert alloc.in_use == ws.registered_bytes
        ws.release()
        assert alloc.in_use == 0
        with pytest.raises(ReproError):
            ws.checkout("a", (100,), np.float64)
        ws.release()  # idempotent

    def test_stats_snapshot(self):
        ws = Workspace()
        ws.checkout("a", (2, 2), np.float64)
        ws.reset()
        st = ws.stats()
        assert st.buffers == 1 and st.alloc_count == 1 and st.resets == 1
        assert st.nbytes == 4 * 8


class TestWarmEqualsCold:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_all_ops_warm_equal_cold(self, matrix, rng, config):
        cold = FFTMatvec(matrix)
        warm = warm_up(FFTMatvec(matrix))
        m = rng.standard_normal((NT, NM))
        d = rng.standard_normal((NT, ND))
        B = rng.standard_normal((NT, NM, K))
        D = rng.standard_normal((NT, ND, K))
        for name, v in (("matvec", m), ("rmatvec", d), ("matmat", B), ("rmatmat", D)):
            got = getattr(cold, name)(v, config)
            assert np.array_equal(got, getattr(warm, name)(v, config)), name
            assert_dense(matrix, config, got, v, adjoint=name.startswith("r"))

    def test_out_param_returns_caller_buffer(self, matrix, rng):
        ref = FFTMatvec(matrix)
        arena = FFTMatvec(matrix)
        B = rng.standard_normal((NT, NM, K))
        out = np.empty((NT, ND, K))
        res = arena.matmat(B, out=out)
        assert res is out
        assert np.array_equal(out, ref.matmat(B))
        o2 = np.empty((NT, ND))
        assert arena.matvec(rng.standard_normal((NT, NM)), out=o2) is o2

    def test_out_param_shape_checked(self, matrix, rng):
        arena = FFTMatvec(matrix)
        with pytest.raises(ReproError):
            arena.matvec(rng.standard_normal((NT, NM)), out=np.empty((NT, ND + 1)))
        with pytest.raises(ReproError):
            arena.matvec(
                rng.standard_normal((NT, NM)),
                out=np.empty((NT, ND), dtype=np.float32),
            )

    def test_results_detached_from_arena(self, matrix, rng):
        # A caller holding result i must not see it change when apply
        # i+1 reuses the arena.
        arena = FFTMatvec(matrix)
        m1, m2 = rng.standard_normal((2, NT, NM))
        r1 = arena.matvec(m1)
        saved = r1.copy()
        arena.matvec(m2)
        assert np.array_equal(r1, saved)


class TestWarmEqualsColdGrid:
    # "sssss" exercises the grid arena's float32 broadcast staging
    # (``_chunk_bcast``), whose payload the rank engines pad as it is.
    @pytest.mark.parametrize("config", ["ddddd", "dsdsd", "sssss"])
    @pytest.mark.parametrize("skew", [False, True])
    def test_grid_ops_warm_equal_cold(self, matrix, rng, config, skew):
        kw = {}
        if skew:
            kw["row_ranges"] = skewed_extents(ND, 2, skew=0.5)
            kw["col_ranges"] = skewed_extents(NM, 2, skew=0.4)

        def make():
            return ParallelFFTMatvec(
                matrix,
                ProcessGrid(2, 2, net=FRONTIER_NETWORK),
                spec=MI300X,
                max_block_k=4,
                **kw,
            )

        cold, warm = make(), warm_up(make())
        m = rng.standard_normal((NT, NM))
        d = rng.standard_normal((NT, ND))
        B = rng.standard_normal((NT, NM, K))
        D = rng.standard_normal((NT, ND, K))
        for name, v, kwargs in (
            ("matvec", m, {}), ("rmatvec", d, {}),
            *[(name, v, {"overlap": o}) for o in (True, False) for name, v in (("matmat", B), ("rmatmat", D))],
        ):
            got = getattr(cold, name)(v, config, **kwargs)
            assert np.array_equal(got, getattr(warm, name)(v, config, **kwargs)), (name, kwargs)
            assert_dense(matrix, config, got, v, adjoint=name.startswith("r"))

    def test_grid_matches_single_device(self, matrix, rng):
        # The arena-backed grid must still reproduce the single-device
        # blocked result to rounding (sanity against cross-rank aliasing).
        single = FFTMatvec(matrix)
        grid = ParallelFFTMatvec(matrix, ProcessGrid(2, 2), max_block_k=4)
        B = rng.standard_normal((NT, NM, K))
        np.testing.assert_allclose(
            grid.matmat(B), single.matmat(B), rtol=1e-12, atol=1e-12
        )


class TestZeroGrowth:
    N_APPLIES = 50

    def test_single_device_zero_growth_after_warmup(self, matrix, rng):
        arena = FFTMatvec(matrix)
        B = rng.standard_normal((NT, NM, K))
        arena.matmat(B)  # warmup
        frozen = arena.workspace.alloc_count
        out = np.empty((NT, ND, K))
        for _ in range(self.N_APPLIES):
            arena.matmat(B, out=out)
        assert arena.workspace.alloc_count == frozen
        assert arena.workspace.resets == 1 + self.N_APPLIES

    def test_single_device_mixed_ops_zero_growth(self, matrix, rng):
        arena = FFTMatvec(matrix)
        m = rng.standard_normal((NT, NM))
        D = rng.standard_normal((NT, ND, K))
        arena.matvec(m)
        arena.rmatmat(D)
        frozen = arena.workspace.alloc_count
        for _ in range(self.N_APPLIES):
            arena.matvec(m)
            arena.rmatmat(D)
        assert arena.workspace.alloc_count == frozen

    def test_grid_zero_growth_after_warmup(self, matrix, rng):
        arena = ParallelFFTMatvec(
            matrix,
            ProcessGrid(2, 2, net=FRONTIER_NETWORK),
            spec=MI300X,
            max_block_k=4,
        )
        B = rng.standard_normal((NT, NM, K))
        arena.matmat(B)  # warmup covers both ping-pong slots + ragged tail
        frozen = total_allocs(arena)
        out = np.empty((NT, ND, K))
        for _ in range(self.N_APPLIES):
            arena.matmat(B, out=out)
        assert total_allocs(arena) == frozen

    def test_grid_vector_zero_growth(self, matrix, rng):
        arena = ParallelFFTMatvec(matrix, ProcessGrid(2, 2))
        m = rng.standard_normal((NT, NM))
        arena.matvec(m)
        frozen = total_allocs(arena)
        for _ in range(self.N_APPLIES):
            arena.matvec(m)
        assert total_allocs(arena) == frozen


class TestAllocatorFootprint:
    def test_peak_matches_registered_footprint(self, matrix, rng):
        dev = SimulatedDevice(MI300X)
        arena = FFTMatvec(matrix, device=dev)
        B = rng.standard_normal((NT, NM, K))
        arena.matmat(B)
        arena.matmat(B)
        ws = arena.workspace
        assert ws.registered_bytes > 0
        assert dev.allocator.peak == ws.registered_bytes
        assert dev.allocator.in_use == ws.registered_bytes
        ws.release()
        assert dev.allocator.in_use == 0

    @pytest.mark.parametrize("reduction", ["fast", "pairwise"])
    def test_arena_is_the_same_with_and_without_a_device(self, matrix, rng, reduction):
        # A device books launches; it does not pick kernels or buffers.
        # (A pairwise engine's tile scratch used to be a fresh allocation
        # per apply once a device was attached, and the deterministic
        # panel to loop k GEMVs through buffers of their own.)
        M = rng.standard_normal((NT, NM, K))
        D = rng.standard_normal((NT, ND, K))
        arenas = []
        for device in (None, SimulatedDevice(MI300X)):
            eng = FFTMatvec(matrix, device=device, reduction=reduction)
            for _ in range(2):
                eng.matvec(M[:, :, 0]), eng.rmatvec(D[:, :, 0])
                eng.matmat(M), eng.rmatmat(D)
                eng.matmat(M, deterministic=True), eng.rmatmat(D, deterministic=True)
            stats = eng.workspace.stats()
            arenas.append((stats.nbytes, stats.buffers, stats.alloc_count, sorted({key[0] for key in eng.workspace._pools})))
        assert arenas[0] == arenas[1]
        assert ("pairwise_scratch" in arenas[0][3]) == (reduction == "pairwise")

    def test_grid_workspace_report(self, matrix, rng):
        arena = ParallelFFTMatvec(
            matrix,
            ProcessGrid(2, 2, net=FRONTIER_NETWORK),
            spec=MI300X,
            max_block_k=4,
        )
        arena.matmat(rng.standard_normal((NT, NM, K)))
        report = arena.workspace_report()
        assert report["grid_arena_bytes"] > 0
        assert len(report["rank_arenas"]) == 4
        for rank in report["rank_arenas"].values():
            assert rank["allocator_peak_bytes"] == rank["registered_bytes"]
            assert rank["arena_bytes"] > 0
        assert report["total_arena_bytes"] > report["grid_arena_bytes"]

    def test_default_built_grid_reports(self, matrix, rng):
        eng = ParallelFFTMatvec(matrix, ProcessGrid(2, 2))
        eng.matvec(rng.standard_normal((NT, NM)))
        report = eng.workspace_report()
        assert report["grid_arena_bytes"] > 0
        assert len(report["rank_arenas"]) == 4
        for rank in report["rank_arenas"].values():
            assert rank["arena_bytes"] > 0 and rank["allocator_peak_bytes"] is None

    def test_grid_rejects_workspace_instance(self, matrix):
        # The grid needs one arena per rank engine; a caller-supplied
        # instance would be silently ignored, so it is refused.
        with pytest.raises(ReproError):
            ParallelFFTMatvec(matrix, ProcessGrid(2, 2), workspace=Workspace())

    def test_workspace_false_raises_on_every_engine(self, matrix):
        # Every engine runs from its arena: there is no arena-less mode
        # to turn on, and ``True`` / ``None`` build the same engine.
        builders = (
            lambda **kw: FFTMatvec(matrix, **kw),
            lambda **kw: ParallelFFTMatvec(matrix, ProcessGrid(2, 2), **kw),
            lambda **kw: ElasticEngine(matrix, 4, **kw),
        )
        for build in builders:
            with pytest.raises(ReproError, match="workspace"):
                build(workspace=False)
            eng = build(workspace=True)
            assert isinstance(getattr(eng, "engine", eng).workspace, Workspace)

    def test_service_deterministic_false_raises(self):
        # Flushes always run the engines' bitwise path: there is no fast
        # mode to turn on, and True is the one value accepted.
        for value in (False, None, 1):
            with pytest.raises(ReproError, match="deterministic"):
                SolverService(EngineCache(1 << 20), deterministic=value)
        SolverService(EngineCache(1 << 20), deterministic=True)


class TestCastNoopCounter:
    def test_all_double_skips_every_interphase_cast(self, matrix, rng):
        arena = FFTMatvec(matrix)
        before = arena.cast_noop_count
        arena.matvec(rng.standard_normal((NT, NM)))
        # pad->fft, fft->sbgemv (reorder already lands at sbgemv prec),
        # sbgemv->ifft: three explicit no-ops per all-double apply.
        assert arena.cast_noop_count == before + 3

    def test_counter_counts_block_applies_too(self, matrix, rng):
        ref = FFTMatvec(matrix)
        before = ref.cast_noop_count
        ref.matmat(rng.standard_normal((NT, NM, K)))
        assert ref.cast_noop_count == before + 3


class TestApplyScopeGuard:
    """The arena refuses interleaved applies instead of corrupting them."""

    def test_begin_apply_reentry_raises(self):
        ws = Workspace()
        epoch = ws.begin_apply()
        assert ws.in_use
        with pytest.raises(ReproError, match="mid-apply"):
            ws.begin_apply()
        ws.end_apply()
        assert not ws.in_use
        assert ws.begin_apply() == epoch + 1  # reusable once closed
        ws.end_apply()

    def test_released_arena_refuses_applies(self):
        ws = Workspace()
        ws.release()
        with pytest.raises(ReproError, match="released"):
            ws.begin_apply()

    def test_engine_refuses_concurrent_apply_on_one_arena(self, matrix, rng):
        eng = FFTMatvec(matrix)
        m = rng.standard_normal((NT, NM))
        # Simulate an apply already live on this arena (what a second
        # thread mid-pipeline would look like to the guard).
        eng.workspace.begin_apply()
        with pytest.raises(ReproError, match="mid-apply"):
            eng.matvec(m)
        eng.workspace.end_apply()
        # The arena recovers once the scope closes.
        assert eng.matvec(m).shape == (NT, ND)

    def test_guard_fires_on_a_warm_engine_too(self, matrix, rng):
        """A prepared record skips the checkouts, never the bracket."""
        eng = FFTMatvec(matrix)
        m = rng.standard_normal((NT, NM))
        want = eng.matvec(m)
        eng.matvec(m)
        eng.workspace.begin_apply()
        with pytest.raises(ReproError, match="mid-apply"):
            eng.matvec(m)
        eng.workspace.end_apply()
        assert np.array_equal(eng.matvec(m), want)

    def test_release_drops_the_engines_records(self, matrix, rng):
        """Records hold arena buffers; none outlives the arena, and the
        apply after a release fails as loudly as it always did."""
        eng = FFTMatvec(matrix)
        m, D = rng.standard_normal((NT, NM)), rng.standard_normal((NT, ND, 3))
        for _ in range(3):
            eng.matvec(m), eng.rmatmat(D)
        assert len(eng._plans) == 4 and eng.workspace.nbytes > 0
        eng.workspace.release()
        assert not eng._plans and eng.workspace.nbytes == 0
        for apply, v in ((eng.matvec, m), (eng.rmatmat, D)):
            with pytest.raises(ReproError, match="released"):
                apply(v)
        assert not eng._plans

    def test_records_share_the_plan_lru_bound(self, matrix, rng):
        eng = FFTMatvec(matrix)
        eng.plan_cache_size = 4
        M = rng.standard_normal((NT, NM, 40))
        want = FFTMatvec(matrix).matmat(M, deterministic=True)  # column by column
        for k in range(1, 41):
            got = eng.matmat(M[:, :, :k], deterministic=True)
            assert np.array_equal(got, want[:, :, :k])
            assert len(eng._plans) <= 4
        assert eng.plan_evictions == 2 * 40 - 4
        allocs = eng.workspace.alloc_count
        for k in range(1, 41):  # evicted records come back on the same buffers
            eng.matmat(M[:, :, :k], deterministic=True)
        assert eng.workspace.alloc_count == allocs

    def test_engine_closes_scope_after_each_apply(self, matrix, rng):
        eng = FFTMatvec(matrix)
        eng.matvec(rng.standard_normal((NT, NM)))
        assert not eng.workspace.in_use
        eng.matmat(rng.standard_normal((NT, NM, 3)))
        assert not eng.workspace.in_use

    def test_grid_engine_guard_on_rank_arena(self, matrix, rng):
        eng = ParallelFFTMatvec(matrix, ProcessGrid(2, 2))
        rank = next(iter(eng.engines.values()))
        rank.workspace.begin_apply()
        with pytest.raises(ReproError, match="mid-apply"):
            eng.matvec(rng.standard_normal((NT, NM)))
        rank.workspace.end_apply()
        assert eng.matvec(rng.standard_normal((NT, NM))).shape == (NT, ND)
