"""Pairwise (fixed-tree) SBGEMM: dispatch, numerics, partition invariance."""

import tracemalloc

import numpy as np
import pytest

from repro.blas import gemm_kernels
from repro.blas.dispatch import SBGEMVDispatcher
from repro.blas.gemm_kernels import (
    PairwiseSBGEMM,
    gemm_strided_batched_reference,
    pairwise_gemm_strided_batched_reference,
    pairwise_segment_values,
)
from repro.blas.types import BlasDatatype, GemmProblem, Operation
from repro.comm.collectives import fixed_tree_reduce_segments
from repro.core.matvec import FFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.specs import get_gpu
from repro.util.pairwise import canonical_segments, fold_pairwise
from repro.util.validation import ReproError
from repro.util.workspace import Workspace

SPEC = get_gpu("mi300x")


def _operands(batch, m, n, k, dtype=np.complex128, seed=0):
    rng = np.random.default_rng(seed)
    A = (rng.standard_normal((batch, m, n)) + 1j * rng.standard_normal((batch, m, n))).astype(dtype)
    in_rows = n  # op N
    B = (rng.standard_normal((batch, in_rows, k)) + 1j * rng.standard_normal((batch, in_rows, k))).astype(dtype)
    return A, B


class TestPairwiseReference:
    def test_close_to_fast_reference(self):
        A, B = _operands(3, 4, 11, 5)
        fast = gemm_strided_batched_reference(A, B, Operation.N)
        pw = pairwise_gemm_strided_batched_reference(A, B, Operation.N)
        assert np.allclose(fast, pw, rtol=1e-12)

    @pytest.mark.parametrize("op", [Operation.N, Operation.T, Operation.C])
    def test_blocked_equals_looped_bitwise(self, op):
        A, B = _operands(2, 5, 9, 6, seed=1)
        if op is not Operation.N:
            # B rows follow the transposed contraction extent.
            rng = np.random.default_rng(2)
            B = (
                rng.standard_normal((2, 5, 6)) + 1j * rng.standard_normal((2, 5, 6))
            ).astype(np.complex128)
        a_conj = np.conj(A) if op is Operation.C else None
        blocked = pairwise_gemm_strided_batched_reference(A, B, op, a_conj=a_conj)
        for j in range(B.shape[2]):
            looped = pairwise_gemm_strided_batched_reference(
                A, B[:, :, j : j + 1], op, a_conj=a_conj
            )
            assert np.array_equal(blocked[:, :, j : j + 1], looped)

    def test_segment_merge_matches_any_partition(self):
        n = 9
        A, B = _operands(2, 3, n, 4, seed=5)
        ref = pairwise_gemm_strided_batched_reference(A, B, Operation.N)
        for bounds in ([0, n], [0, 1, n], [0, 4, 5, n], list(range(n + 1))):
            merged = {}
            for lo, hi in zip(bounds, bounds[1:]):
                merged.update(
                    pairwise_segment_values(
                        A[:, :, lo:hi], B[:, lo:hi, :], Operation.N, lo, n
                    )
                )
            out = fixed_tree_reduce_segments(merged, n)
            assert np.array_equal(out, ref)


class TestPairwiseDispatch:
    def test_select_gemm_wraps_and_taxes(self):
        disp = SBGEMVDispatcher(SPEC)
        problem = GemmProblem(
            m=100, n=500, k=8, batch=64, datatype=BlasDatatype.Z,
            operation=Operation.N,
        )
        fast = disp.select_gemm(problem)
        pw = disp.select_gemm(problem, reduction="pairwise")
        assert isinstance(pw, PairwiseSBGEMM)
        assert pw.inner.name == fast.name
        assert pw.efficiency(problem, SPEC) == pytest.approx(
            fast.efficiency(problem, SPEC) * PairwiseSBGEMM.DETERMINISM_TAX
        )
        assert pw.modeled_time(problem, SPEC) > fast.modeled_time(problem, SPEC)

    def test_select_gemm_rejects_bad_mode(self):
        disp = SBGEMVDispatcher(SPEC)
        problem = GemmProblem(
            m=4, n=8, k=2, batch=3, datatype=BlasDatatype.Z,
            operation=Operation.N,
        )
        with pytest.raises(ReproError):
            disp.select_gemm(problem, reduction="det")

    def test_k1_skips_gemv_degeneration_in_pairwise_mode(self):
        disp = SBGEMVDispatcher(SPEC)
        A, B = _operands(2, 3, 7, 1, seed=9)
        out_pw = disp.gemm_strided_batched(A, B, Operation.N, reduction="pairwise")
        assert disp.dispatch_counts[PairwiseSBGEMM.name] >= 1
        # Bitwise the same tree a width-1 slice of a wide panel sees.
        wide_B = np.concatenate([B, B], axis=2)
        wide = disp.gemm_strided_batched(A, wide_B, Operation.N, reduction="pairwise")
        assert np.array_equal(out_pw, wide[:, :, :1])

    def test_run_matches_reference_bitwise(self):
        disp = SBGEMVDispatcher(SPEC)
        A, B = _operands(3, 4, 10, 5, seed=11)
        got = disp.gemm_strided_batched(A, B, Operation.N, reduction="pairwise")
        ref = pairwise_gemm_strided_batched_reference(A, B, Operation.N)
        assert np.array_equal(got, ref)


# -- bit-for-bit oracle: the materialize-then-fold kernel ---------------------
def _oracle_segments(A, B, op, start, n_global, a_conj=None):
    """The retired kernel, kept as the oracle: one leaf tensor holding
    every elementwise product, then ``fold_pairwise`` per canonical
    segment along the contraction axis."""
    if op is Operation.C:
        A = a_conj if a_conj is not None else np.conj(A)
    if op is Operation.N:
        leaves, axis = A[:, :, :, None] * B[:, None, :, :], 2
    else:
        leaves, axis = A[:, :, :, None] * B[:, :, None, :], 1
    local = leaves.shape[axis]
    values = {}
    for s, e in canonical_segments(start, start + local, n_global):
        cut = [slice(None)] * 4
        cut[axis] = slice(s - start, min(e, n_global) - start)
        values[(s, e)] = fold_pairwise(leaves[tuple(cut)], axis=axis)
    return values


def _problem(op, batch, rows, contraction, k, dtype, seed):
    rng = np.random.default_rng(seed)

    def cplx(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)

    a_shape = (batch, rows, contraction) if op is Operation.N else (batch, contraction, rows)
    return cplx(*a_shape), cplx(batch, contraction, k)


def _offsets(length):
    """(start, n_global) pairs: the whole axis, a range whose last
    segment owns the clipped virtual tail, an interior range, and a
    range starting off any power-of-two boundary."""
    return [(0, length), (3, length + 3), (5, 2 * length + 6), (length, 2 * length)]


@pytest.fixture
def small_tiles(monkeypatch):
    """Shrink the tile constants so a (11, 5, L) problem is walked in
    several frequency tiles x several sub-trees with a roots fold."""
    monkeypatch.setattr(gemm_kernels, "_ROW_ELEMS", 48)
    monkeypatch.setattr(gemm_kernels, "_TILE_BYTES", 4096)


LENGTHS = [1, 2, 3, 5, 12, 13, 192, 200]


class TestBitForBitOracle:
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("op", [Operation.N, Operation.T, Operation.C])
    @pytest.mark.parametrize("length", LENGTHS)
    def test_segments_equal_oracle(self, small_tiles, op, dtype, length):
        for k in (1, 3, 16):
            A, B = _problem(op, 11, 5, length, k, dtype, seed=length + k)
            for start, n_global in _offsets(length):
                want = _oracle_segments(A, B, op, start, n_global)
                got = pairwise_segment_values(A, B, op, start, n_global)
                assert list(got) == list(want)
                for key in want:
                    assert got[key].dtype == dtype
                    assert np.array_equal(got[key], want[key]), (k, start, key)

    @pytest.mark.parametrize("op", [Operation.N, Operation.T, Operation.C])
    @pytest.mark.parametrize("length", LENGTHS)
    def test_reference_equals_oracle_with_and_without_out(self, small_tiles, op, length):
        for k in (1, 3, 16):
            A, B = _problem(op, 11, 5, length, k, np.complex128, seed=7 * length + k)
            ((_, want),) = _oracle_segments(A, B, op, 0, length).items()
            assert np.array_equal(
                pairwise_gemm_strided_batched_reference(A, B, op), want
            )
            out = np.full(want.shape, np.nan + 0j)
            got = pairwise_gemm_strided_batched_reference(
                A, B, op, out=out, a_conj=np.conj(A) if op is Operation.C else None
            )
            assert got is out and np.array_equal(out, want)

    def test_width_one_ranges(self, small_tiles):
        # Every width-1 part of a 9-long axis, including the last one
        # (whose lone segment is a clipped virtual node).
        A, B = _problem(Operation.N, 11, 5, 9, 3, np.complex128, seed=3)
        for j in range(9):
            want = _oracle_segments(A[:, :, j : j + 1], B[:, j : j + 1], Operation.N, j, 9)
            got = pairwise_segment_values(A[:, :, j : j + 1], B[:, j : j + 1], Operation.N, j, 9)
            assert list(got) == list(want)
            assert all(np.array_equal(got[key], want[key]) for key in want)

    @pytest.mark.parametrize(
        "op, rows, length, k", [(Operation.N, 12, 200, 16), (Operation.C, 200, 7, 4)]
    )
    def test_shipped_tile_constants(self, op, rows, length, k):
        # No monkeypatching: 41 frequencies fall into uneven tiles, and
        # the 200-long contraction into sub-trees plus a clipped tail.
        A, B = _problem(op, 41, rows, length, k, np.complex128, seed=k)
        subtree, ftile = gemm_kernels._tile_plan(41, rows * k, 16, length)
        assert 41 % ftile and subtree < 200
        for start, n_global in [(0, length), (3, length + 3)]:
            want = _oracle_segments(A, B, op, start, n_global)
            got = pairwise_segment_values(A, B, op, start, n_global)
            assert all(np.array_equal(got[key], want[key]) for key in want)

    def test_workspace_scratch_is_reused_and_bitwise(self):
        A, B = _problem(Operation.N, 9, 4, 37, 3, np.complex128, seed=1)
        want = pairwise_gemm_strided_batched_reference(A, B, Operation.N)
        ws = Workspace(name="test")
        for _ in range(3):
            ws.begin_apply()
            got = pairwise_gemm_strided_batched_reference(A, B, Operation.N, workspace=ws)
            ws.end_apply()
            assert np.array_equal(got, want)
        assert ws.alloc_count == 1


class TestNumpyRoundingCanary:
    """The kernel is bitwise-stable only while numpy's elementwise
    complex ``multiply``/``add`` round the same whether an operand is
    contiguous (SIMD loop), strided (scalar loop) or broadcast through
    a zero stride.  If a numpy release ever breaks that (say, an FMA in
    one loop only), partition invariance would break silently — this
    fails loudly instead."""

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_contiguous_strided_and_broadcast_agree(self, dtype):
        rng = np.random.default_rng(0)
        n = 4099  # odd: SIMD body plus a scalar tail
        scale = 10.0 ** rng.uniform(-6, 6, size=n)
        a = ((rng.standard_normal(n) + 1j * rng.standard_normal(n)) * scale).astype(dtype)
        b = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(dtype)
        a2 = np.zeros(2 * n, dtype)[::2]
        b2 = np.zeros(3 * n, dtype)[::3]
        a2[:], b2[:] = a, b
        out2 = np.zeros(2 * n, dtype)[1::2]
        for ufunc in (np.multiply, np.add):
            ref = ufunc(a, b)
            assert np.array_equal(ufunc(a2, b2), ref)
            assert np.array_equal(ufunc(a2, b), ref)
            ufunc(a, b2, out=out2)
            assert np.array_equal(out2, ref)
            # Zero-stride operand (how the kernel broadcasts A over k and
            # B over out_rows) against one scalar op per element.
            rows = ufunc(np.broadcast_to(a[:7, None], (7, n)), b[None, :])
            for i in range(7):
                assert np.array_equal(rows[i], ufunc(a[i], b))
            # In-place accumulation, the fold's ``add(a, b, out=a)``.
            acc = a.copy()
            ufunc(acc, b, out=acc)
            assert np.array_equal(acc, ref)


class TestBoundedTransientMemory:
    @pytest.mark.parametrize("op", [Operation.N, Operation.C])
    @pytest.mark.parametrize("k", [4, 16])
    def test_peak_is_one_tile_not_the_leaf_tensor(self, op, k):
        # The retired kernel held 76 MB (k=4) / 304 MB (k=16) of leaf
        # products here; the tiled one holds a tile of scratch.
        A, B = _problem(op, 129, 24 if op is Operation.N else 384,
                        384 if op is Operation.N else 24, k, np.complex128, seed=0)
        a_conj = np.conj(A) if op is Operation.C else None
        out = np.empty((129, 24 if op is Operation.N else 384, k), np.complex128)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            pairwise_gemm_strided_batched_reference(A, B, op, out=out, a_conj=a_conj)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < B.nbytes + (4 << 20), f"transient peak {peak / 1e6:.1f} MB"

    def test_workspace_engine_shows_zero_arena_growth(self):
        rng = np.random.default_rng(0)
        matrix = BlockTriangularToeplitz(rng.standard_normal((16, 6, 20)))
        engine = FFTMatvec(matrix, workspace=True, reduction="pairwise", validate="abft")
        M, D = rng.standard_normal((16, 20, 4)), rng.standard_normal((16, 6, 4))
        for _ in range(2):
            engine.matmat(M), engine.rmatmat(D), engine.matvec(M[:, :, 0])
        frozen = engine.workspace.alloc_count
        for _ in range(20):
            engine.matmat(M), engine.rmatmat(D), engine.matvec(M[:, :, 0])
        assert engine.workspace.alloc_count == frozen
