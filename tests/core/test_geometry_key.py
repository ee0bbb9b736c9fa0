"""Tests for engine geometry fingerprints.

``geometry_key()`` is what the serving layer folds into operator
fingerprints: equal keys must mean "identical five-phase shapes", be
hashable (dict/set usable) and stable across engine instances.
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
