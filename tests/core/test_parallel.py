"""Tests for the SPMD multi-GPU FFTMatvec."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.grid import ProcessGrid
from repro.comm.netmodel import FRONTIER_NETWORK
from repro.core.matvec import FFTMatvec
from repro.core.parallel import ParallelFFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.specs import MI250X_GCD
from repro.util.dtypes import fill_low_mantissa
from repro.util.validation import ReproError

from tests.conftest import rel_err


def make(nt=16, nd=4, nm=24, pr=2, pc=3, seed=0, spec=None):
    rng = np.random.default_rng(seed)
    matrix = BlockTriangularToeplitz.random(nt, nd, nm, rng=rng)
    grid = ProcessGrid(pr, pc, net=FRONTIER_NETWORK)
    return ParallelFFTMatvec(matrix, grid, spec=spec), matrix, rng


class TestAgreementWithSingleGPU:
    @pytest.mark.parametrize("pr,pc", [(1, 1), (1, 4), (4, 1), (2, 3), (4, 6)])
    def test_forward(self, pr, pc):
        eng, matrix, rng = make(pr=pr, pc=pc)
        m = rng.standard_normal((16, 24))
        ref = FFTMatvec(matrix).matvec(m)
        assert rel_err(eng.matvec(m), ref) < 1e-12

    @pytest.mark.parametrize("pr,pc", [(1, 3), (2, 2), (4, 2)])
    def test_adjoint(self, pr, pc):
        eng, matrix, rng = make(pr=pr, pc=pc)
        d = rng.standard_normal((16, 4))
        ref = FFTMatvec(matrix).rmatvec(d)
        assert rel_err(eng.rmatvec(d), ref) < 1e-12

    def test_uneven_partition(self):
        # Nd=5 over 2 rows, Nm=23 over 3 cols: ceil-based ownership
        eng, matrix, rng = make(nd=5, nm=23, pr=2, pc=3)
        m = rng.standard_normal((16, 23))
        assert rel_err(eng.matvec(m), FFTMatvec(matrix).matvec(m)) < 1e-12

    def test_adjoint_dot_test_across_grid(self):
        eng, _, rng = make(pr=2, pc=2)
        m = rng.standard_normal((16, 24))
        d = rng.standard_normal((16, 4))
        lhs = np.vdot(eng.matvec(m), d)
        rhs = np.vdot(m, eng.rmatvec(d))
        assert lhs == pytest.approx(rhs, rel=1e-11)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 10**5))
    def test_property_grid_invariance(self, pr, pc, seed):
        rng = np.random.default_rng(seed)
        matrix = BlockTriangularToeplitz.random(8, 3 * pr, 4 * pc, rng=rng)
        grid = ProcessGrid(pr, pc)
        eng = ParallelFFTMatvec(matrix, grid)
        m = rng.standard_normal((8, 4 * pc))
        assert rel_err(eng.matvec(m), FFTMatvec(matrix).matvec(m)) < 1e-11


class TestValidation:
    def test_too_many_rows(self):
        with pytest.raises(ReproError, match="sensors"):
            make(nd=2, pr=4, pc=1)

    def test_too_many_cols(self):
        with pytest.raises(ReproError, match="parameters"):
            make(nm=2, pr=1, pc=4)


class TestMixedPrecisionAcrossGrid:
    def test_mixed_error_scale(self):
        eng, _, rng = make(nt=32, nd=4, nm=32, pr=2, pc=4, seed=1)
        m = fill_low_mantissa(rng.standard_normal((32, 32)))
        ref = eng.matvec(m, config="ddddd")
        out = eng.matvec(m, config="dssdd")
        assert 1e-10 < rel_err(out, ref) < 1e-5

    def test_single_reduce_precision(self):
        # dssds: the Phase-5 reduction runs in single across the grid
        eng, _, rng = make(nt=16, nd=4, nm=32, pr=1, pc=8, seed=2)
        m = fill_low_mantissa(rng.standard_normal((16, 32)))
        ref = eng.matvec(m, config="ddddd")
        e_dd = rel_err(eng.matvec(m, config="dssdd"), ref)
        e_ds = rel_err(eng.matvec(m, config="dssds"), ref)
        assert e_ds > 0
        assert e_ds >= e_dd * 0.3  # same order; reduce adds error

    def test_reduction_error_grows_with_pc(self):
        errs = []
        for pc in (2, 16):
            eng, _, rng = make(nt=8, nd=2, nm=64, pr=1, pc=pc, seed=3)
            m = fill_low_mantissa(rng.standard_normal((8, 64)))
            ref = eng.matvec(m, config="ddddd")
            errs.append(rel_err(eng.matvec(m, config="dddds"), ref))
        assert errs[1] > errs[0] * 0.5  # wider reduce, more accumulation


class TestTimingAndComm:
    def test_comm_charged_to_pad_and_unpad(self):
        eng, _, rng = make(pr=2, pc=2, spec=MI250X_GCD)
        eng.matvec(rng.standard_normal((16, 24)))
        t = eng.last_timing
        assert t is not None
        assert t.phase("pad") > 0  # includes the column broadcast
        assert t.phase("unpad") > 0  # includes the row reduction

    def test_compute_charged_once(self):
        # per-matvec time must not scale with the number of ranks when
        # the local problem size is fixed (ranks are concurrent)
        rng = np.random.default_rng(0)
        times = {}
        for pc in (2, 4):
            matrix = BlockTriangularToeplitz.random(16, 4, 16 * pc, rng=rng)
            grid = ProcessGrid(1, pc)
            eng = ParallelFFTMatvec(matrix, grid, spec=MI250X_GCD)
            eng.matvec(rng.standard_normal((16, 16 * pc)))
            times[pc] = eng.last_timing.phase("sbgemv")
        assert times[4] == pytest.approx(times[2], rel=0.2)

    def test_engines_partitioned(self):
        eng, _, _ = make(pr=2, pc=3)
        assert len(eng.engines) == 6
        assert eng.engines[(0, 0)].nd == 2  # 4 sensors / 2 rows
        assert eng.engines[(0, 0)].nm == 8  # 24 params / 3 cols

    @pytest.mark.parametrize("reduction", ["fast", "pairwise"])
    def test_a_dropped_engine_dies_with_its_last_reference(self, reduction):
        # A grid engine owns every rank's spectrum and arenas; an
        # ElasticEngine rebuild or a serving-cache eviction drops it and
        # must get that memory back at once, not at the cycle
        # collector's next pass (keeping the per-engine chunk compute /
        # reduce pair as bound methods on the instance did exactly that).
        rng = np.random.default_rng(0)
        eng = ParallelFFTMatvec(
            BlockTriangularToeplitz.random(8, 4, 6, rng=rng), ProcessGrid(2, 2),
            reduction=reduction, max_block_k=2,
        )
        eng.matmat(rng.standard_normal((8, 6, 3)))
        probe = weakref.ref(eng)
        gc.collect()
        gc.disable()
        try:
            del eng
            assert probe() is None
        finally:
            gc.enable()

    def test_every_rank_has_private_device(self):
        # Per-rank skew: each rank measures compute on its own clock,
        # and those clocks are not the shared grid clock (the grid
        # charges the max over ranks at collective boundaries).
        eng, _, _ = make(pr=2, pc=2, spec=MI250X_GCD)
        for rc in ((0, 0), (0, 1), (1, 1)):
            assert eng.engines[rc].device is not None
            assert eng.engines[rc].device.clock is not eng.grid.clock
        assert eng.device is eng.engines[(0, 0)].device

    def test_balanced_ranks_tie(self):
        # On a balanced partition every rank's private clock charges the
        # identical compute time, so max-over-ranks == one rank's time.
        eng, _, rng = make(nd=4, nm=24, pr=2, pc=2, spec=MI250X_GCD)
        eng.matvec(rng.standard_normal((16, 24)))
        totals = {
            rc: sum(
                dev.clock.phase_total(p)
                for p in ("pad", "fft", "sbgemv", "ifft", "unpad")
            )
            for rc, dev in eng.devices.items()
        }
        vals = list(totals.values())
        assert all(v == vals[0] for v in vals)
