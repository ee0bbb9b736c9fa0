"""Tests for the blocked multi-RHS path across the 2-D process grid."""

import numpy as np
import pytest

from repro.comm.grid import ProcessGrid
from repro.comm.netmodel import FRONTIER_NETWORK
from repro.core.matvec import FFTMatvec
from repro.core.parallel import ParallelFFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.specs import MI250X_GCD
from repro.util.validation import ReproError

from tests.conftest import rel_err


def make(nt=16, nd=4, nm=24, pr=2, pc=3, seed=0, spec=None, max_block_k=None, workspace=None):
    rng = np.random.default_rng(seed)
    matrix = BlockTriangularToeplitz.random(nt, nd, nm, rng=rng)
    grid = ProcessGrid(pr, pc, net=FRONTIER_NETWORK)
    eng = ParallelFFTMatvec(
        matrix, grid, spec=spec, max_block_k=max_block_k, workspace=workspace
    )
    return eng, matrix, rng


class TestAgreement:
    @pytest.mark.parametrize("pr,pc", [(1, 1), (1, 4), (4, 1), (2, 3)])
    def test_forward_matches_looped(self, pr, pc):
        eng, matrix, rng = make(pr=pr, pc=pc)
        M = rng.standard_normal((16, 24, 6))
        blocked = eng.matmat(M)
        for j in range(6):
            assert rel_err(blocked[:, :, j], eng.matvec(M[:, :, j])) < 1e-12

    @pytest.mark.parametrize("pr,pc", [(1, 3), (2, 2)])
    def test_adjoint_matches_looped(self, pr, pc):
        eng, matrix, rng = make(pr=pr, pc=pc)
        D = rng.standard_normal((16, 4, 5))
        blocked = eng.rmatmat(D)
        for j in range(5):
            assert rel_err(blocked[:, :, j], eng.rmatvec(D[:, :, j])) < 1e-12

    def test_matches_single_device_matmat(self):
        eng, matrix, rng = make(pr=2, pc=2)
        M = rng.standard_normal((16, 24, 8))
        ref = FFTMatvec(matrix).matmat(M)
        assert rel_err(eng.matmat(M), ref) < 1e-12

    def test_flat_input_accepted(self):
        eng, _, rng = make(pr=2, pc=2)
        M = rng.standard_normal((16, 24, 4))
        flat = eng.matmat(M.reshape(16 * 24, 4))
        assert np.array_equal(flat, eng.matmat(M))


class TestChunkedEdgeCases:
    def test_k1_degenerates_to_matvec_bitwise(self):
        # A single-column block rides the SBGEMV dispatch exactly.
        eng, _, rng = make(pr=2, pc=3, spec=MI250X_GCD)
        m = rng.standard_normal((16, 24))
        assert np.array_equal(
            eng.matmat(m[:, :, None])[:, :, 0], eng.matvec(m)
        )
        d = rng.standard_normal((16, 4))
        assert np.array_equal(
            eng.rmatmat(d[:, :, None])[:, :, 0], eng.rmatvec(d)
        )

    def test_vector_apply_is_the_deterministic_k1_chunk_bitwise(self):
        # Device-less, skewed, fast mode: no dispatcher forces the GEMV,
        # so a vector apply routed through the wrong Phase-3 kernel
        # shows.  Oracle: every rank engine's own vector pipeline, summed
        # over the two ranks of each output part (one tree edge).
        rng = np.random.default_rng(3)
        matrix = BlockTriangularToeplitz.random(16, 5, 23, rng=rng)
        rows, cols = [(0, 2), (2, 5)], [(0, 17), (17, 23)]
        eng = ParallelFFTMatvec(
            matrix, ProcessGrid(2, 2, net=FRONTIER_NETWORK), spec=None,
            row_ranges=rows, col_ranges=cols,
        )
        m = rng.standard_normal((16, 23))
        d = rng.standard_normal((16, 5))
        Fm, Ftd = np.empty((16, 5)), np.empty((16, 23))
        for r, (r0, r1) in enumerate(rows):
            Fm[:, r0:r1] = sum(
                eng.engines[(r, c)].matvec(m[:, c0:c1])
                for c, (c0, c1) in enumerate(cols)
            )
        for c, (c0, c1) in enumerate(cols):
            Ftd[:, c0:c1] = sum(
                eng.engines[(r, c)].rmatvec(d[:, r0:r1])
                for r, (r0, r1) in enumerate(rows)
            )
        assert np.array_equal(eng.matvec(m), Fm)
        assert np.array_equal(eng.rmatvec(d), Ftd)
        for det in (True, False):
            FM = eng.matmat(m[:, :, None], deterministic=det)
            FtD = eng.rmatmat(d[:, :, None], deterministic=det)
            assert np.array_equal(FM[:, :, 0], Fm)
            assert np.array_equal(FtD[:, :, 0], Ftd)

    @pytest.mark.parametrize("spec", [None, MI250X_GCD], ids=["nodev", "dev"])
    @pytest.mark.parametrize("arena", [False, True], ids=["noarena", "arena"])
    @pytest.mark.parametrize("pr,pc", [(2, 1), (2, 2)])
    @pytest.mark.parametrize("shape", [(12, 2, 8), (12, 3, 96)], ids=str)
    def test_deterministic_columns_are_vector_applies_at_degenerate_widths(
        self, shape, pr, pc, arena, spec
    ):
        # Two or three sensors over two grid rows: ranks of one local
        # sensor row, where the strided panel view used to send numpy
        # down another matmul loop than the lone GEMV's.
        nt, nd, nm = shape
        eng, _, rng = make(nt=nt, nd=nd, nm=nm, pr=pr, pc=pc, spec=spec, workspace=arena)
        for k in (2, 5):
            M = rng.standard_normal((nt, nm, k))
            D = rng.standard_normal((nt, nd, k))
            FM = eng.matmat(M, deterministic=True)
            FtD = eng.rmatmat(D, deterministic=True)
            for j in range(k):
                assert np.array_equal(FM[:, :, j], eng.matvec(M[:, :, j]))
                assert np.array_equal(FtD[:, :, j], eng.rmatvec(D[:, :, j]))

    def test_max_block_k_1_is_looped_path_bitwise(self):
        eng, _, rng = make(pr=2, pc=2)
        M = rng.standard_normal((16, 24, 7))
        looped = np.stack(
            [eng.matvec(M[:, :, j]) for j in range(7)], axis=-1
        )
        assert np.array_equal(eng.matmat(M, max_block_k=1), looped)

    def test_k_not_multiple_of_chunk(self):
        # k=7, max_block_k=3 -> chunks of 3, 3, 1.
        eng, _, rng = make(pr=2, pc=2)
        M = rng.standard_normal((16, 24, 7))
        full = eng.matmat(M)
        passes0 = eng.matmat_count
        chunked = eng.matmat(M, max_block_k=3)
        assert eng.matmat_count - passes0 == 3
        assert rel_err(chunked, full) < 1e-13

    def test_k_exceeds_nm_on_small_grid(self):
        # More RHS than local (or even global) parameters.
        eng, matrix, rng = make(nd=4, nm=6, pr=2, pc=3)
        M = rng.standard_normal((16, 6, 11))
        blocked = eng.matmat(M)
        for j in range(11):
            assert rel_err(blocked[:, :, j], eng.matvec(M[:, :, j])) < 1e-12

    def test_constructor_default_chunk(self):
        eng, _, rng = make(pr=2, pc=2, max_block_k=2)
        M = rng.standard_normal((16, 24, 6))
        passes0 = eng.matmat_count
        eng.matmat(M)  # uses the constructor's max_block_k=2
        assert eng.matmat_count - passes0 == 3

    def test_invalid_chunk_rejected(self):
        eng, _, rng = make(pr=1, pc=1)
        M = rng.standard_normal((16, 24, 4))
        with pytest.raises(ReproError):
            eng.matmat(M, max_block_k=0)

    def test_bad_block_shape_rejected(self):
        eng, _, _ = make(pr=1, pc=1)
        with pytest.raises(ReproError):
            eng.matmat(np.zeros((16, 23, 4)))
        with pytest.raises(ReproError):
            eng.rmatmat(np.zeros((16, 24, 4)))  # data block must be nd


class TestCollectivesAndCounters:
    def test_one_bcast_one_reduce_per_chunk(self):
        eng, _, rng = make(pr=2, pc=2, spec=MI250X_GCD)
        grid = eng.grid
        M = rng.standard_normal((16, 24, 8))
        b0 = grid.col_comm(0).op_counts["bcast"]
        r0 = grid.row_comm(0).op_counts["reduce"]
        eng.matmat(M, max_block_k=4)
        assert grid.col_comm(0).op_counts["bcast"] - b0 == 2
        assert grid.row_comm(0).op_counts["reduce"] - r0 == 2

    def test_adjoint_swaps_comm_roles(self):
        eng, _, rng = make(pr=2, pc=2)
        grid = eng.grid
        D = rng.standard_normal((16, 4, 5))
        rb0 = grid.row_comm(0).op_counts["bcast"]
        cr0 = grid.col_comm(0).op_counts["reduce"]
        eng.rmatmat(D)
        assert grid.row_comm(0).op_counts["bcast"] - rb0 == 1
        assert grid.col_comm(0).op_counts["reduce"] - cr0 == 1

    def test_comm_volume_scales_with_k(self):
        vols = []
        for k in (2, 8):
            eng, _, rng = make(pr=2, pc=2, seed=4)
            eng.matmat(rng.standard_normal((16, 24, k)))
            vols.append(eng.grid.col_comm(0).bytes_communicated)
        assert vols[1] == pytest.approx(vols[0] * 4)

    @pytest.mark.parametrize("reduction", ["fast", "pairwise"])
    def test_action_counters(self, reduction):
        rng = np.random.default_rng(0)
        matrix = BlockTriangularToeplitz.random(16, 4, 24, rng=rng)
        eng = ParallelFFTMatvec(
            matrix, ProcessGrid(2, 2, net=FRONTIER_NETWORK), reduction=reduction
        )
        eng.matvec(rng.standard_normal((16, 24)))
        eng.rmatvec(rng.standard_normal((16, 4)))
        assert (eng.matvec_count, eng.matmat_count) == (2, 0)
        eng.matmat(rng.standard_normal((16, 24, 6)), max_block_k=4)
        assert eng.matvec_count == 8  # 2 + 6 logical actions
        assert eng.matmat_count == 2  # ceil(6/4) chunks

    def test_blocked_timing_recorded(self):
        eng, _, rng = make(pr=2, pc=2, spec=MI250X_GCD)
        eng.matmat(rng.standard_normal((16, 24, 4)))
        t = eng.last_timing
        assert t is not None
        assert t.phase("pad") > 0 and t.phase("unpad") > 0
        assert "k=4" in t.label


class TestMixedPrecisionBlocked:
    def test_blocked_mixed_error_scale(self):
        from repro.util.dtypes import fill_low_mantissa

        eng, _, rng = make(nt=32, nd=4, nm=32, pr=2, pc=4, seed=1)
        M = fill_low_mantissa(rng.standard_normal((32, 32, 4)))
        ref = eng.matmat(M, config="ddddd")
        out = eng.matmat(M, config="dssdd")
        assert 1e-10 < rel_err(out, ref) < 1e-5

    def test_blocked_reduce_tree_error_grows_with_pc(self):
        from repro.util.dtypes import fill_low_mantissa

        errs = []
        for pc in (2, 16):
            eng, _, rng = make(nt=8, nd=2, nm=64, pr=1, pc=pc, seed=3)
            M = fill_low_mantissa(rng.standard_normal((8, 64, 3)))
            ref = eng.matmat(M, config="ddddd")
            errs.append(rel_err(eng.matmat(M, config="dddds"), ref))
        assert errs[1] > errs[0] * 0.5
