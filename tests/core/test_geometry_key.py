"""Tests for engine geometry fingerprints and the FFT-plan LRU bound.

``geometry_key()`` is what the serving layer folds into operator
fingerprints: equal keys must mean "identical five-phase shapes", be
hashable (dict/set usable) and stable across engine instances.  The
plan-cache tests pin the LRU bound a long-lived service relies on —
an engine serving many precision configs must not grow its plan dict
without limit.
"""

import numpy as np
import pytest

from repro.comm.grid import ProcessGrid
from repro.core.matvec import FFTMatvec
from repro.core.parallel import ParallelFFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz


def make_matrix(nt=16, nd=4, nm=24, seed=0):
    rng = np.random.default_rng(seed)
    return BlockTriangularToeplitz.random(nt, nd, nm, rng=rng)


class TestSingleEngineKey:
    def test_equal_for_twin_engines(self):
        a = FFTMatvec(make_matrix())
        b = FFTMatvec(make_matrix(seed=1))  # different values, same geometry
        assert a.geometry_key() == b.geometry_key()
        assert hash(a.geometry_key()) == hash(b.geometry_key())

    def test_stable_across_calls(self):
        eng = FFTMatvec(make_matrix())
        assert eng.geometry_key() is not eng.geometry_key()  # fresh tuple
        assert eng.geometry_key() == eng.geometry_key()

    @pytest.mark.parametrize(
        "kw", [{"nt": 8}, {"nd": 5}, {"nm": 23}]
    )
    def test_shape_changes_key(self, kw):
        base = FFTMatvec(make_matrix()).geometry_key()
        other = FFTMatvec(make_matrix(**kw)).geometry_key()
        assert base != other

    def test_usable_as_dict_key(self):
        eng = FFTMatvec(make_matrix())
        cache = {eng.geometry_key(): "hit"}
        assert cache[FFTMatvec(make_matrix(seed=7)).geometry_key()] == "hit"

    def test_reduction_changes_key(self):
        # A pairwise engine produces different bits from a fast engine
        # for the same operator — the keys must never collide, or the
        # serving layer would coalesce/alias them.
        fast = FFTMatvec(make_matrix())
        det = FFTMatvec(make_matrix(), reduction="pairwise")
        assert fast.geometry_key() != det.geometry_key()
        assert det.geometry_key() == FFTMatvec(
            make_matrix(seed=9), reduction="pairwise"
        ).geometry_key()


class TestGridEngineKey:
    def test_equal_for_twin_grids(self):
        a = ParallelFFTMatvec(make_matrix(), ProcessGrid(2, 2))
        b = ParallelFFTMatvec(make_matrix(seed=3), ProcessGrid(2, 2))
        assert a.geometry_key() == b.geometry_key()
        assert hash(a.geometry_key()) == hash(b.geometry_key())

    def test_grid_shape_changes_key(self):
        a = ParallelFFTMatvec(make_matrix(), ProcessGrid(2, 2))
        b = ParallelFFTMatvec(make_matrix(), ProcessGrid(1, 4))
        assert a.geometry_key() != b.geometry_key()

    def test_partition_changes_key(self):
        mat = make_matrix()
        a = ParallelFFTMatvec(mat, ProcessGrid(1, 2))
        b = ParallelFFTMatvec(mat, ProcessGrid(1, 2), col_ranges=[(0, 6), (6, 24)])
        assert a.geometry_key() != b.geometry_key()

    def test_distinct_from_single_engine(self):
        mat = make_matrix()
        single = FFTMatvec(mat)
        grid = ParallelFFTMatvec(mat, ProcessGrid(1, 1))
        assert single.geometry_key() != grid.geometry_key()

    def test_reduction_changes_key(self):
        fast = ParallelFFTMatvec(make_matrix(), ProcessGrid(2, 2))
        det = ParallelFFTMatvec(
            make_matrix(), ProcessGrid(2, 2), reduction="pairwise"
        )
        assert fast.geometry_key() != det.geometry_key()
        assert det.geometry_key() == ParallelFFTMatvec(
            make_matrix(seed=5), ProcessGrid(2, 2), reduction="pairwise"
        ).geometry_key()


class TestPlanCacheLRU:
    def test_plans_bounded_with_eviction_counter(self):
        eng = FFTMatvec(make_matrix())
        eng.plan_cache_size = 2  # shrink the bound for the test
        rng = np.random.default_rng(0)
        m = rng.standard_normal((16, 24))
        d = rng.standard_normal((16, 4))
        # Distinct FFT/iFFT precisions mint distinct plans; cycling
        # configs in both directions overflows a 2-entry cache.
        for config in ["ddddd", "sssss", "dsdsd", "sdsds"]:
            eng.matvec(m, config=config)
            eng.rmatvec(d, config=config)
        assert len(eng._plans) <= 2
        assert eng.plan_evictions > 0

    def test_hot_plan_survives_lru(self):
        eng = FFTMatvec(make_matrix())
        eng.plan_cache_size = 2
        rng = np.random.default_rng(1)
        m = rng.standard_normal((16, 24))
        eng.matvec(m, config="ddddd")
        hot = set(eng._plans.keys())
        # Re-touch the hot plans between cold configs: they must stay.
        eng.matvec(m, config="ddddd")
        assert hot <= set(eng._plans.keys())

    def test_steady_state_mints_no_new_plans(self):
        eng = FFTMatvec(make_matrix())
        rng = np.random.default_rng(2)
        m = rng.standard_normal((16, 24))
        eng.matvec(m)
        n_plans = len(eng._plans)
        evictions = eng.plan_evictions
        for _ in range(5):
            eng.matvec(m)
        assert len(eng._plans) == n_plans
        assert eng.plan_evictions == evictions
