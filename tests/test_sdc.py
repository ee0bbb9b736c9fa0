"""Silent-data-corruption defense: injection, detection, localized recovery.

The SDC tentpole's acceptance properties:

* **No false negatives** — every injected exponent-bit flip (device
  buffers mid-pipeline, collective payloads in transport) is detected
  by a checksum layer (payload digest, ABFT column checksum, Parseval
  energy) and surfaces as a typed
  :class:`~repro.comm.fault.SilentCorruption`.
* **No false positives** — a clean run with every check armed raises
  nothing, and under ``reduction="pairwise"`` is bitwise-identical to
  the unchecked run (verification only reads).
* **Localized recovery** — :class:`~repro.core.elastic.ElasticEngine`
  recomputes only the corrupted chunk; the final block is
  bitwise-identical to the clean result, for balanced, random and
  width-1 partitions.
"""

import asyncio

import numpy as np
import pytest

from repro.comm.fault import (
    CorruptionSchedule,
    NumericalHealthError,
    SilentCorruption,
)
from repro.comm.collectives import fixed_tree_reduce_segments
from repro.comm.grid import ProcessGrid
from repro.comm.simcomm import SimCommunicator
from repro.core.elastic import ElasticEngine
from repro.core.matvec import FFTMatvec
from repro.core.parallel import ParallelFFTMatvec
from repro.core.precision import PrecisionConfig
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.serve import EngineCache, SolverService
from repro.util import checksum as chk
from repro.util.pairwise import canonical_segments
from repro.util.validation import ReproError

from tests.conftest import fold_pairwise, warm_up

NT, ND, NM = 8, 6, 12
K = 6
RANKS = 4
MBK = 2  # chunked applies -> chunk-local recomputation is observable


@pytest.fixture(scope="module")
def matrix():
    rng = np.random.default_rng(777)
    return BlockTriangularToeplitz(rng.standard_normal((NT, ND, NM)))


@pytest.fixture(scope="module")
def block(matrix):
    rng = np.random.default_rng(888)
    return rng.standard_normal((NT, NM, K))


@pytest.fixture(scope="module")
def clean(matrix, block):
    """Unchecked pairwise elastic result — the bitwise ground truth."""
    eng = ElasticEngine(matrix, RANKS, reduction="pairwise", max_block_k=MBK)
    return eng.matmat(block)


def scheduled_elastic(matrix, n_ranks, sched):
    """A chunked pairwise elastic engine with ``sched`` installed."""
    eng = ElasticEngine(matrix, n_ranks, reduction="pairwise", max_block_k=MBK)
    eng.install_corruption_schedule(sched)
    return eng


def sdc_horizon(matrix, block, n_ranks=RANKS):
    """Number of corruptible events one checked apply performs."""
    probe = CorruptionSchedule()
    eng = scheduled_elastic(matrix, n_ranks, probe)
    eng.matmat(block)
    assert probe.calls > 0
    return probe.calls


# -- checksum primitives ------------------------------------------------------
class TestChecksumPrimitives:
    def test_payload_digest_exact_on_faithful_copy(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(64)
        d = chk.payload_digest(a)
        # Same bytes, same summation order: digests match bit-for-bit.
        assert chk.payload_digest(a.copy()) == d
        chk.verify_payload(a.copy(), d, op="bcast", phase="comm")

    def test_payload_flip_detected(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(64)
        d = chk.payload_digest(a)
        b = a.copy()
        chk.flip_bit(b, index=17)
        with pytest.raises(SilentCorruption) as ei:
            chk.verify_payload(b, d, op="bcast", phase="comm", rank=3)
        assert ei.value.check == "payload"
        assert ei.value.rank == 3

    @staticmethod
    def _payload(dtype, size, seed):
        """A C-contiguous buffer of ``size`` elements whose first floats
        are Inf, NaN and 0.0 — values a float digest cannot see past."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(size)
        if np.dtype(dtype).kind == "c":
            a = a + 1j * rng.standard_normal(size)
        a = a.astype(dtype)
        floats = a.view(np.float32 if a.itemsize in (4, 8) else np.float64)
        floats[:3] = (np.inf, np.nan, 0.0)
        return a

    @staticmethod
    def _xor_bit(a, index, bit):
        """Flip any bit (sign included) of float ``index`` of ``a``'s real view."""
        bits = np.uint32 if a.itemsize in (4, 8) else np.uint64
        words = a.view(np.float32 if bits is np.uint32 else np.float64).view(bits)
        words[index] ^= bits(1 << bit)

    @pytest.mark.parametrize(
        "dtype,size",
        [
            (np.float64, 33),
            (np.complex128, 17),
            (np.float32, 33),  # odd: a trailing 4-byte word
            (np.float32, 32),
            (np.complex64, 17),
        ],
        ids=["f64", "c128", "f32-odd", "f32-even", "c64"],
    )
    def test_every_single_bit_flip_is_caught(self, dtype, size):
        """The integer digest moves by +-2**b for a flip of bit b, so no
        flip hides below a rounding step — low mantissa bits, the sign,
        and flips of Inf / NaN / 0.0 included, in a payload or a segment
        table alike."""
        a = self._payload(dtype, size, seed=6)
        n_floats = a.size * (2 if a.dtype.kind == "c" else 1)
        width = 32 if a.itemsize in (4, 8) else 64
        sent = chk.payload_digest(a)
        table = {(0, 1): a, (1, 2): self._payload(dtype, size, seed=7)}
        sent_table = chk.table_digest(table)
        for index in (0, 1, 2, n_floats // 2, n_floats - 1):
            for bit in range(width):
                b = a.copy()
                self._xor_bit(b, index, bit)
                with pytest.raises(SilentCorruption):
                    chk.verify_payload(b, sent, op="bcast", phase="comm")
                with pytest.raises(SilentCorruption) as ei:
                    chk.verify_table(
                        {**table, (0, 1): b}, sent_table, op="reduce", phase="comm"
                    )
                assert "segment (0, 1)" in ei.value.detail

    @pytest.mark.parametrize(
        "dtype,size",
        [(np.float64, 33), (np.complex128, 17), (np.float32, 33), (np.complex64, 17)],
        ids=["f64", "c128", "f32-odd", "c64"],
    )
    def test_faithful_copy_verifies_exactly_at_any_alignment(self, dtype, size):
        a = self._payload(dtype, size, seed=8).reshape(-1, 1)
        sent = chk.payload_digest(a)
        assert isinstance(sent, int) and 0 <= sent < 2**64
        for offset in range(1, 8):  # byte offsets: no copy is 8-byte aligned
            raw = np.zeros(a.nbytes + offset, dtype=np.uint8)
            b = raw[offset:].view(a.dtype).reshape(a.shape)
            b[...] = a
            assert chk.payload_digest(b) == sent
            chk.verify_payload(b, sent, op="bcast", phase="comm")
        # A copy sitting one element into a larger buffer (the odd float32
        # case straddles 8-byte words differently from the original).
        host = np.zeros(a.size + 1, dtype=a.dtype)
        host[1:] = a.reshape(-1)
        chk.verify_payload(host[1:].reshape(a.shape), sent, op="bcast", phase="comm")

    def test_flip_bit_semantics(self):
        z = np.zeros(4)
        idx, old, new = chk.flip_bit(z, index=2, bit=62)
        assert (idx, old, new) == (2, 0.0, 2.0)  # exponent MSB of 0.0
        # Complex buffers flip in the real/imag float view.
        c = np.zeros(3, dtype=np.complex128)
        chk.flip_bit(c, index=1)
        assert np.sum(c != 0) == 1
        # Single precision clamps bit 62 down to its exponent MSB.
        f = np.zeros(4, dtype=np.float32)
        _, _, new32 = chk.flip_bit(f, index=0, bit=62)
        assert new32 == 2.0
        with pytest.raises(ReproError):
            chk.flip_bit(np.zeros((4, 4))[:, 0], 0)  # non-contiguous
        with pytest.raises(ReproError):
            chk.flip_bit(np.zeros(0), 0)
        with pytest.raises(ReproError):
            chk.flip_bit(np.zeros(4, dtype=np.int64), 0)

    def test_gemm_checksums_clean_then_flipped(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((5, 7))
        B = rng.standard_normal((7, 3))
        C = A @ B
        expected = np.sum(A, axis=0, keepdims=True) @ B
        scale = chk.gemm_checksum_scale(A, B)
        chk.verify_gemm_checksums(
            expected, np.sum(C, axis=0, keepdims=True), scale, length=8
        )
        chk.flip_bit(C, index=4)
        with pytest.raises(SilentCorruption) as ei:
            chk.verify_gemm_checksums(
                expected, np.sum(C, axis=0, keepdims=True), scale, length=8
            )
        assert ei.value.check == "abft"

    def test_energy_checks_clean_then_flipped(self):
        rng = np.random.default_rng(3)
        n = 16
        x = rng.standard_normal((4, n))
        X = np.fft.rfft(x, axis=-1)
        chk.verify_forward_energy(x, X, n)
        out = n * np.fft.irfft(X, n=n, axis=-1)  # engine's unnormalized inverse
        chk.verify_inverse_energy(X, out, n)
        Xbad = X.copy()
        chk.flip_bit(Xbad, index=9)
        with pytest.raises(SilentCorruption) as ei:
            chk.verify_forward_energy(x, Xbad, n)
        assert ei.value.check == "energy"
        outbad = out.copy()
        chk.flip_bit(outbad, index=21)
        with pytest.raises(SilentCorruption):
            chk.verify_inverse_energy(X, outbad, n)

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("n", [16, 15])
    def test_half_spectrum_energy_matches_a_float64_reference(self, dtype, n):
        """The one-pass sum against the bin-weighted power squared and
        summed in float64 the slow way: the summation order differs, the
        precision does not (single-precision spectra included)."""
        rng = np.random.default_rng(9)
        X = np.fft.rfft(rng.standard_normal((5, n)), axis=-1).astype(dtype)
        weight = np.full(X.shape[-1], 2.0)
        weight[0] = 1.0
        if n % 2 == 0:
            weight[-1] = 1.0
        want = float(np.sum(weight * np.abs(X.astype(np.complex128)) ** 2))
        assert chk.half_spectrum_energy(X, n) == pytest.approx(want, rel=1e-12)

    def test_table_digest_and_flip(self):
        rng = np.random.default_rng(4)
        n = 8
        leaves = rng.standard_normal((n, 3))
        table = {
            (s, e): fold_pairwise(leaves[s:e], axis=0)
            for s, e in canonical_segments(0, n, n)
        }
        d = chk.table_digest(table)
        chk.verify_table(table, d, op="reduce", phase="comm")
        chk.flip_table_bit(table, index=5)
        with pytest.raises(SilentCorruption) as ei:
            chk.verify_table(table, d, op="reduce", phase="comm")
        assert ei.value.check == "payload"
        assert "segment" in ei.value.detail

    def test_flip_table_bit_needs_a_segment(self):
        with pytest.raises(ReproError, match="empty segment table"):
            chk.flip_table_bit({}, index=0)

    def test_ensure_finite(self):
        chk.ensure_finite(np.ones(8), phase="pad")
        bad = np.ones(8)
        bad[3] = np.inf
        with pytest.raises(NumericalHealthError) as ei:
            chk.ensure_finite(bad, phase="unpad", rank=1, chunk=2)
        assert ei.value.phase == "unpad"
        assert ei.value.rank == 1 and ei.value.chunk == 2

    def test_exponent_flip_beats_tolerance_everywhere(self):
        # The detectability floor behind "100% of injected flips": a
        # bit-62 flip moves any float64 by at least ~its own magnitude
        # (0 -> 2.0), far above gemm_rtol/energy_rtol at repo sizes.
        for v in (0.0, 1e-30, 0.5, 1.7, 3.0, 1e12):
            a = np.array([v])
            _, old, new = chk.flip_bit(a, 0)
            delta = abs(new - old)
            assert not delta <= chk.gemm_rtol(np.float64, 4096) * max(
                abs(v), 1.0
            )


# -- collective payload verification ------------------------------------------
class TestCommunicatorPayloads:
    def test_bcast_flip_detected_at_receive(self):
        comm = SimCommunicator(4)
        sched = CorruptionSchedule(flips=[(0, 2)])
        comm.install_corruption_schedule(sched)
        assert comm.verify_payloads
        with pytest.raises(SilentCorruption) as ei:
            comm.bcast(np.ones(8))
        assert ei.value.check == "payload"
        assert ei.value.op == "bcast"
        assert ei.value.rank == 2
        assert sched.pending == () and len(sched.injected) == 1

    def test_reduce_flip_detected(self):
        comm = SimCommunicator(4)
        comm.install_corruption_schedule(CorruptionSchedule(flips=[(0, 1)]))
        with pytest.raises(SilentCorruption) as ei:
            comm.reduce([np.ones(8) for _ in range(4)])
        assert ei.value.check == "payload"
        assert ei.value.op == "reduce"

    def test_reduce_segments_flip_detected(self):
        n = 8
        rng = np.random.default_rng(5)
        leaves = rng.standard_normal((n, 2))
        bounds = [0, 3, n]
        tables = []
        for lo, hi in zip(bounds, bounds[1:]):
            tables.append(
                {
                    (s, e): fold_pairwise(leaves[s:e], axis=0)
                    for s, e in canonical_segments(lo, hi, n)
                }
            )
        comm = SimCommunicator(2)
        comm.install_corruption_schedule(CorruptionSchedule(flips=[(0, 1)]))
        with pytest.raises(SilentCorruption) as ei:
            comm.reduce_segments(tables, n)
        assert ei.value.check == "payload"

    def test_armed_clean_collectives_pass(self):
        comm = SimCommunicator(4)
        sched = CorruptionSchedule()  # armed, nothing scheduled
        comm.install_corruption_schedule(sched)
        copies = comm.bcast(np.arange(8.0))
        assert all(np.array_equal(c, np.arange(8.0)) for c in copies)
        out = comm.reduce([np.ones(8) for _ in range(4)])
        assert np.array_equal(out, 4.0 * np.ones(8))
        assert sched.calls == 2
        comm.install_corruption_schedule(None)
        assert not comm.verify_payloads

    def test_verification_off_by_default(self):
        assert not SimCommunicator(4).verify_payloads


# -- engine-boundary validation modes -----------------------------------------
class TestEngineValidate:
    @pytest.mark.parametrize(
        "spec", ["bogus", True, False, "", "guard", "guard+abft", "abft+guard", "guard+"]
    )
    @pytest.mark.parametrize("kind", ["single", "grid", "elastic"])
    def test_unknown_mode_rejected(self, matrix, kind, spec):
        # One spelling per mode: None or "abft"; dropped ones get no alias.
        build = {
            "single": lambda: FFTMatvec(matrix, validate=spec),
            "grid": lambda: ParallelFFTMatvec(matrix, ProcessGrid(2, 2), validate=spec),
            "elastic": lambda: ElasticEngine(matrix, RANKS, validate=spec),
        }[kind]
        with pytest.raises(ReproError, match="validate must be None or 'abft'"):
            build()

    def test_abft_catches_nonfinite_input(self, matrix):
        x = np.ones((NT, NM))
        x[2, 3] = np.nan
        # Off by default: NaN flows through silently.
        assert np.isnan(FFTMatvec(matrix).matvec(x)).any()
        with pytest.raises(NumericalHealthError) as ei:
            FFTMatvec(matrix, validate="abft").matvec(x)
        assert ei.value.phase == "pad"

    def test_checked_apply_is_bitwise_and_counts_checks(self, matrix, block):
        plain = FFTMatvec(matrix, reduction="pairwise")
        checked = FFTMatvec(matrix, reduction="pairwise", validate="abft")
        assert np.array_equal(
            checked.matmat(block, deterministic=True),
            plain.matmat(block, deterministic=True),
        )
        assert checked.sdc_checks > 0
        assert plain.sdc_checks == 0

    def test_installed_schedule_arms_abft(self, matrix, block):
        eng = FFTMatvec(matrix)
        eng.install_corruption_schedule(CorruptionSchedule())
        eng.matmat(block)
        assert eng.sdc_checks > 0

    @pytest.mark.parametrize("validate", [None, "abft"])
    @pytest.mark.parametrize("kind", ["grid", "elastic"])
    def test_disarming_keeps_the_digests_validate_set(self, matrix, kind, validate):
        # Payload digests stay as ``validate=`` set them once a schedule
        # is disarmed, whether or not one was ever armed.
        if kind == "grid":
            eng = ParallelFFTMatvec(matrix, ProcessGrid(2, 2), validate=validate)
        else:
            eng = ElasticEngine(matrix, RANKS, validate=validate)
        grid = eng.grid
        comms = [grid.row_comm(r) for r in range(grid.pr)] + [
            grid.col_comm(c) for c in range(grid.pc)
        ]
        want = [validate is not None] * len(comms)
        assert [c.verify_payloads for c in comms] == want
        eng.install_corruption_schedule(None)
        assert [c.verify_payloads for c in comms] == want
        eng.install_corruption_schedule(CorruptionSchedule())
        assert all(c.verify_payloads for c in comms)
        eng.install_corruption_schedule(None)
        assert [c.verify_payloads for c in comms] == want


# -- non-finite input is bad input, not corruption ------------------------------
class TestNonFiniteInput:
    """Under ``"abft"`` a NaN/Inf the caller hands in raises
    :class:`NumericalHealthError` at the pad, before any algebraic check
    could blame it on a flip; the unpad's own cast is checked too."""

    @staticmethod
    def _poisoned(block, value, col):
        bad = block.copy()
        bad[1, NM - 1, col] = value  # parameter NM - 1: grid column 1
        return bad

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_single_engine(self, matrix, block, value):
        eng = FFTMatvec(matrix, validate="abft")
        with pytest.raises(NumericalHealthError) as ei:
            eng.matmat(self._poisoned(block, value, 0))
        assert (ei.value.phase, ei.value.rank) == ("pad", None)
        assert eng.sdc_checks == 0

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("reduction", ["fast", "pairwise"])
    def test_grid(self, matrix, block, reduction, value):
        eng = ParallelFFTMatvec(
            matrix, ProcessGrid(2, 2), reduction=reduction, validate="abft"
        )
        with pytest.raises(NumericalHealthError) as ei:
            eng.matmat(self._poisoned(block, value, 0))
        # Ranks 1 and 3 own grid column 1; the lowest one's error wins.
        assert (ei.value.phase, ei.value.rank) == ("pad", 1)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_elastic_recomputes_nothing(self, matrix, block, value):
        eng = ElasticEngine(
            matrix, RANKS, reduction="pairwise", max_block_k=MBK, validate="abft"
        )
        with pytest.raises(NumericalHealthError) as ei:
            eng.matmat(self._poisoned(block, value, MBK))  # chunk 1's first column
        assert (ei.value.phase, ei.value.rank, ei.value.chunk) == ("pad", 1, 1)
        assert eng.report.chunks_recomputed == 0
        assert eng.report.corruption_events == []
        assert eng.report.chunks_applied == 1  # chunk 0 committed

    def test_unpad_cast_overflow(self, matrix):
        # The double IFFT output exceeds float32's range: the single
        # unpad writes Inf, which no algebraic check sees.  The finite
        # check reports it; numpy's cast warning (an error under this
        # suite's filters) does not come first.
        x = np.full((NT, NM), 1e38)
        eng = FFTMatvec(matrix, validate="abft")
        with pytest.raises(NumericalHealthError) as ei:
            eng.matvec(x, config="dddds")
        assert (ei.value.phase, ei.value.rank) == ("unpad", None)

    def test_pad_cast_overflow(self, matrix):
        # A finite double input beyond float32's range: the single pad
        # writes Inf.
        x = np.full((NT, NM), 1e39)
        eng = FFTMatvec(matrix, validate="abft")
        with pytest.raises(NumericalHealthError) as ei:
            eng.matvec(x, config="sdddd")
        assert (ei.value.phase, ei.value.rank) == ("pad", None)
        assert eng.sdc_checks == 0

    @pytest.mark.parametrize("config,value", [("sdddd", 1e39), ("dddds", 1e38)])
    def test_an_unarmed_engine_keeps_the_cast_warning(self, matrix, config, value):
        eng = FFTMatvec(matrix)
        # Unchecked, a pad's Inf goes on into the FFT (NaN: "invalid").
        with pytest.warns(RuntimeWarning, match="overflow encountered in cast"):
            with np.errstate(invalid="ignore"):
                eng.matvec(np.full((NT, NM), value), config=config)


class TestSpectrumCorruptedAfterFirstUse:
    """A bit that flips in the live spectrum *after* the engine has used
    it.  Deriving the checksum row from the matrix being checked moves
    both sides of ``e^T C == (e^T op(A)) B`` together, so mantissa and
    low-exponent flips changed the output with zero detections (and a
    bit-62 flip was only caught two phases later by the non-finite
    Parseval rule, blamed on the IFFT).  The row cached from the clean
    spectrum pins the right-hand side."""

    SHAPE, WIDTH = (16, 6, 20), 4

    @pytest.fixture(scope="class")
    def operands(self):
        rng = np.random.default_rng(2024)
        nt, nd, nm = self.SHAPE
        return (
            BlockTriangularToeplitz(rng.standard_normal(self.SHAPE)),
            rng.standard_normal((nt, nm, self.WIDTH)),
            rng.standard_normal((nt, nd, self.WIDTH)),
        )

    @staticmethod
    def _flip_and_apply(engine, rank_engine, operands, adjoint, bit, index, config="ddddd"):
        """One clean apply (first use), flip one bit (float ``index`` of a
        mid-band frequency) of the array Phase 3 reads, apply again: the
        spectrum, or for a complex64 adjoint its contiguous transpose."""
        _, M, D = operands
        apply = (
            (lambda: engine.rmatmat(D, config)) if adjoint else (lambda: engine.matmat(M, config))
        )
        want = apply().copy()
        checks = rank_engine.sdc_checks
        tier = PrecisionConfig.parse(config).sbgemv
        live = rank_engine.adjoint_spectrum(tier) if adjoint else rank_engine.spectrum(tier)
        if not live.flags.c_contiguous:
            live = live.transpose(0, 2, 1)
        chk.flip_bit(live, index, bit)
        with pytest.raises(SilentCorruption) as ei:
            apply()
        assert (ei.value.check, ei.value.phase) == ("abft", "sbgemv")
        chk.flip_bit(live, index, bit)  # heal
        assert np.array_equal(apply(), want)
        assert rank_engine.sdc_checks > checks
        return ei.value

    @pytest.mark.parametrize("bit", [51, 54, 58, 62])
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("reduction", ["fast", "pairwise"])
    def test_single_engine(self, operands, reduction, adjoint, bit):
        engine = FFTMatvec(operands[0], reduction=reduction, validate="abft")
        self._flip_and_apply(engine, engine, operands, adjoint, bit, index=1001)

    @pytest.mark.parametrize("bit", [22, 25, 28, 30])
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("reduction", ["fast", "pairwise"])
    def test_single_tier(self, operands, reduction, adjoint, bit):
        engine = FFTMatvec(operands[0], reduction=reduction, validate="abft")
        self._flip_and_apply(engine, engine, operands, adjoint, bit, index=1001, config="dssdd")

    @pytest.mark.parametrize("bit", [51, 54, 58, 62])
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("reduction", ["fast", "pairwise"])
    def test_grid_rank(self, operands, reduction, adjoint, bit):
        grid = ParallelFFTMatvec(
            operands[0], ProcessGrid(2, 2), reduction=reduction, validate="abft",
            max_block_k=2,
        )
        err = self._flip_and_apply(
            grid, grid.engines[(1, 0)], operands, adjoint, bit, index=301
        )
        assert err.rank == grid.engines[(1, 0)].rank_label

    def test_rows_are_taken_once_per_precision_and_op(self, operands):
        engine = FFTMatvec(operands[0], validate="abft")
        engine.matmat(operands[1]), engine.rmatmat(operands[2])
        rows = dict(engine._abft_rows)
        assert len(rows) == 2
        engine.matmat(operands[1]), engine.rmatmat(operands[2])
        assert all(engine._abft_rows[key] is rows[key] for key in rows)
        engine.matmat(operands[1], config="dssdd")
        assert len(engine._abft_rows) == 3


class _RecordingSchedule(CorruptionSchedule):
    """Flips nothing; records the stage of every injection-site visit."""

    def __init__(self):
        super().__init__()
        self.stages = []

    def on_event(self, op, where=""):
        self.stages.append(op)
        return super().on_event(op, where)


# (sdc_checks per call, injection stages per call) of each pipeline
# entry point: the safety hooks are threaded through one front and one
# back half, and every composition must visit exactly its halves' hooks.
PIPELINE_HOOKS = {
    "vector": (3, ["fft", "sbgemm", "ifft"]),
    "block": (3, ["fft", "sbgemm", "ifft"]),
    "segments": (2, ["fft", "sbgemm"]),
    "finish": (1, ["ifft"]),
}


class TestPipelineHooks:
    @pytest.mark.parametrize("config", ["ddddd", "dssdd"])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("entry", list(PIPELINE_HOOKS))
    @pytest.mark.parametrize("adjoint", [False, True])
    def test_every_entry_point_runs_its_checks_and_injection_sites(
        self, matrix, entry, warm, config, adjoint
    ):
        cfg = PrecisionConfig.parse(config)
        nx = ND if adjoint else NM
        rng = np.random.default_rng(5)
        v = rng.standard_normal((NT, nx, 3))

        def call(eng):
            if entry == "vector":
                apply = eng.rmatvec if adjoint else eng.matvec
                return apply(v[:, :, 0], cfg)
            if entry == "block":
                return eng._pipeline_block(v, cfg, adjoint)
            if entry == "segments":
                return eng._pipeline_block_pairwise_segments(v, cfg, adjoint, 0, nx)
            return eng._pipeline_block_finish(merged, cfg, adjoint)

        # The finish half consumes a genuine merged frequency panel.
        table = FFTMatvec(matrix)._pipeline_block_pairwise_segments(
            v, cfg, adjoint, 0, nx
        )
        merged = fixed_tree_reduce_segments(table, nx)

        # Warm: the engines have applied another width and config first.
        prepare = warm_up if warm else (lambda eng: eng)
        checks, stages = PIPELINE_HOOKS[entry]
        checked = prepare(FFTMatvec(matrix, validate="abft"))
        base = checked.sdc_checks
        for n_calls in (1, 2):  # steady state too: no hook is first-call-only
            call(checked)
            assert checked.sdc_checks - base == n_calls * checks

        armed = prepare(FFTMatvec(matrix))
        sched = _RecordingSchedule()
        armed.install_corruption_schedule(sched)
        call(armed)
        assert sched.stages == stages
        assert armed.sdc_checks == checks  # an armed schedule implies abft


class TestEveryPrecisionConfig:
    """Detection tolerances hold across all 32 precision configs, not
    just ``ddddd``: a clean checked apply raises nothing, and a bit-62
    flip (bit 30 in single precision) at each device site is caught by
    the check that guards it."""

    SHAPE, WIDTH = (16, 6, 12), 3
    SITES = {0: ("fft", "energy"), 1: ("sbgemm", "abft"), 2: ("ifft", "energy")}

    @pytest.fixture(scope="class")
    def operands(self):
        rng = np.random.default_rng(32)
        nt, nd, nm = self.SHAPE
        return {
            "blocks": rng.standard_normal(self.SHAPE),
            "matvec": rng.standard_normal((nt, nm)),
            "rmatvec": rng.standard_normal((nt, nd)),
            "matmat": rng.standard_normal((nt, nm, self.WIDTH)),
            "rmatmat": rng.standard_normal((nt, nd, self.WIDTH)),
        }

    @pytest.mark.parametrize(
        "config", [c.code for c in PrecisionConfig.all_configs()]
    )
    def test_clean_applies_pass_and_seeded_flips_are_caught(self, operands, config):
        eng = FFTMatvec(operands["blocks"], validate="abft")
        names = ("matvec", "rmatvec", "matmat", "rmatmat")
        for name in names:
            checks = eng.sdc_checks
            getattr(eng, name)(operands[name], config=config)
            assert eng.sdc_checks - checks == 3
        for name in names:
            for event, (stage, check) in self.SITES.items():
                sched = CorruptionSchedule(flips=[(event, 0)], seed=event)
                eng.install_corruption_schedule(sched)
                with pytest.raises(SilentCorruption) as ei:
                    getattr(eng, name)(operands[name], config=config)
                assert [i[2] for i in sched.injected] == [stage]
                assert ei.value.check == check, (name, stage, ei.value)


class TestGridFrontDetection:
    """An armed grid transforms each rank's input inside its own rank
    task and books every front launch right behind its kernel: a rank
    that detects a flip at its FFT has booked that attempt's pad and FFT
    and nothing after, and every rank's device has booked a prefix of
    what the clean apply books on it."""

    @pytest.mark.parametrize("victim", range(RANKS))
    @pytest.mark.parametrize("adjoint", [False, True], ids=["F", "Fstar"])
    @pytest.mark.parametrize("reduction", ["fast", "pairwise"])
    def test_fft_stage_detection_leaves_pad_and_fft_booked(
        self, matrix, reduction, adjoint, victim
    ):
        V = np.random.default_rng(9).standard_normal((NT, ND if adjoint else NM, K))

        def armed(schedule):
            eng = ParallelFFTMatvec(
                matrix, ProcessGrid(2, 2), spec="MI300X", validate="abft",
                reduction=reduction, max_block_k=MBK,
            )
            for dev in eng.devices.values():
                dev._record = True  # keep the per-rank launch logs
            eng.install_corruption_schedule(schedule)
            return eng, eng.rmatmat if adjoint else eng.matmat

        probe = _RecordingSchedule()
        clean, apply = armed(probe)
        apply(V)
        # The victim-th FFT stage of the apply: the first chunk's ranks,
        # in rank order.
        event = [i for i, op in enumerate(probe.stages) if op == "fft"][victim]
        failed, apply = armed(CorruptionSchedule(flips=[(event, 0)]))
        before = {rc: dev.clock.now for rc, dev in failed.devices.items()}
        with pytest.raises(SilentCorruption) as ei:
            apply(V)
        assert (ei.value.check, ei.value.phase) == ("energy", "fft")
        for (r, c), dev in failed.devices.items():
            log = [(e.name, e.time, e.phase) for e in dev.launch_log]
            ref = [(e.name, e.time, e.phase) for e in clean.devices[(r, c)].launch_log]
            assert log == ref[: len(log)]
            if failed.grid.rank_of(r, c) == ei.value.rank:
                assert [phase for _, _, phase in log] == ["pad", "fft"]
            t = before[(r, c)]
            for _, seconds, _ in log:
                t += seconds
            assert dev.clock.now == t


# -- elastic chunk-local recomputation ----------------------------------------
class TestElasticSDC:
    def test_armed_clean_run_zero_detections_bitwise(self, matrix, block, clean):
        sched = CorruptionSchedule()
        eng = scheduled_elastic(matrix, RANKS, sched)
        out = eng.matmat(block)
        assert np.array_equal(out, clean)  # checks only read
        assert eng.report.corruptions == 0
        assert eng.report.chunks_recomputed == 0
        assert sched.calls > 0  # the events really were exposed

    @pytest.mark.chaos
    def test_every_seeded_flip_detected_and_recovered_bitwise(
        self, matrix, block, clean, chaos_seed
    ):
        """The headline property: 100% detection, bitwise recovery."""
        horizon = sdc_horizon(matrix, block)
        for trial in range(6):
            sched = CorruptionSchedule.seeded(
                chaos_seed + trial, RANKS, n_flips=1, horizon=horizon
            )
            eng = scheduled_elastic(matrix, RANKS, sched)
            out = eng.matmat(block)
            assert len(sched.injected) == 1  # the flip really happened
            assert eng.report.corruptions >= 1  # ... and was detected
            assert eng.report.chunks_recomputed >= 1
            assert eng.report.rebuilds == 0  # no grid rebuild needed
            assert np.array_equal(out, clean)

    @pytest.mark.chaos
    @pytest.mark.parametrize("n_ranks", [2, 3])
    def test_detection_on_other_world_sizes(
        self, matrix, block, chaos_seed, corruption_schedule, n_ranks
    ):
        ref = ElasticEngine(matrix, n_ranks, reduction="pairwise", max_block_k=MBK).matmat(block)
        horizon = sdc_horizon(matrix, block, n_ranks=n_ranks)
        sched = corruption_schedule(n_ranks, n_flips=1, horizon=horizon)
        eng = scheduled_elastic(matrix, n_ranks, sched)
        out = eng.matmat(block)
        assert len(sched.injected) == 1
        assert eng.report.corruptions >= 1
        assert np.array_equal(out, ref)

    # (event index, target, stage, site) injected by seeds 0, 3 and 5 with
    # two flips over the 42-event horizon — recorded on the sequential
    # rank loop this engine had before ranks could run concurrently.
    AUDIT_TRAILS = {
        0: [(26, 1, "reduce", "row1"), (34, 1, "sbgemm", "engine_rank2")],
        3: [(3, 0, "sbgemm", "engine_rank0"), (33, 0, "bcast", "col1")],
        5: [(27, 1, "ifft", "engine_rank2"), (33, 3, "sbgemm", "engine_rank1")],
    }

    def test_injection_keeps_ranks_inline_and_the_audit_trail(
        self, matrix, block, clean, rank_groups, monkeypatch
    ):
        """A CorruptionSchedule is one event counter that every rank
        engine advances, so while one is installed a chunk's ranks run
        inline in rank order — with the size gate open and CPUs to
        spare, the pool is never touched and each seed injects exactly
        where it always did."""
        from repro.util import executor

        def no_pool(workers):
            raise AssertionError("rank pool used under corruption injection")

        rank_groups(3)
        monkeypatch.setattr(executor, "_rank_pool", no_pool)
        assert sdc_horizon(matrix, block) == 42
        for seed, trail in self.AUDIT_TRAILS.items():
            sched = CorruptionSchedule.seeded(seed, RANKS, n_flips=2, horizon=42)
            eng = scheduled_elastic(matrix, RANKS, sched)
            assert np.array_equal(eng.matmat(block), clean)
            assert sched.injected == trail
            assert eng.report.corruptions == 2

    def test_corruption_event_metadata(self, matrix, block, clean):
        sched = CorruptionSchedule(flips=[(3, 1)])
        eng = scheduled_elastic(matrix, RANKS, sched)
        out = eng.matmat(block)
        assert np.array_equal(out, clean)
        (ev,) = eng.report.corruption_events
        assert ev.check in ("payload", "abft", "energy")
        assert ev.attempt == 1
        assert isinstance(ev.chunk, int)


# -- serving-layer detection accounting ---------------------------------------
class TestServiceSDC:
    @staticmethod
    def _service(sched, **kwargs):
        rng = np.random.default_rng(0)
        mat = BlockTriangularToeplitz.random(NT, ND, NM, rng=rng)

        def builder():
            eng = FFTMatvec(mat)
            eng.install_corruption_schedule(sched)
            return eng

        cache = EngineCache(64 * 2**20)
        service = SolverService(cache, **kwargs)
        handle = service.register(mat, builder=builder)
        return service, handle

    def test_detection_retries_clean_and_counts(self):
        async def main():
            # One flip at the first engine event: the first flush trips
            # a check, the retry (consumed schedule) runs clean.
            sched = CorruptionSchedule(flips=[(0, 0)])
            service, handle = self._service(sched, sdc_escalation_threshold=10)
            async with service:
                m = np.arange(NT * NM, dtype=np.float64).reshape(NT, NM)
                got = await service.matvec(handle, m, tenant="acme")
                ref = FFTMatvec(
                    BlockTriangularToeplitz.random(
                        NT, ND, NM, rng=np.random.default_rng(0)
                    )
                ).matvec(m)
                assert np.array_equal(got, ref)
            stats = service.stats()
            assert stats.sdc_detections == 1
            assert stats.flush_retries == 1
            assert stats.sdc_rebuilds == 0  # below the escalation threshold
            assert service.tenant_sdc_detections() == {"acme": 1}

        asyncio.run(main())

    def test_repeat_offender_escalates_to_engine_rebuild(self):
        async def main():
            sched = CorruptionSchedule(flips=[(0, 0)])
            service, handle = self._service(sched, sdc_escalation_threshold=1)
            async with service:
                got = await service.matvec(handle, np.ones((NT, NM)))
                assert np.all(np.isfinite(got))
            stats = service.stats()
            assert stats.sdc_detections == 1
            assert stats.sdc_rebuilds == 1  # evicted + rebuilt, then clean

        asyncio.run(main())

    def test_persistent_corruption_fails_futures(self):
        async def main():
            # More flips than retry budget: the request must fail with
            # the typed error, not hang or return poisoned data.
            sched = CorruptionSchedule(flips=[(i, 0) for i in range(64)])
            service, handle = self._service(sched, max_flush_retries=1)
            async with service:
                with pytest.raises(SilentCorruption):
                    await service.matvec(handle, np.ones((NT, NM)))
            assert service.stats().sdc_detections == 2  # initial + 1 retry

        asyncio.run(main())

    def test_nonfinite_payload_refused_at_submit(self):
        """One tenant's NaN request is refused before it can share a
        flush: its batch-mates return their solo bits, and no detection,
        rebuild or retry is charged to anyone."""
        rng = np.random.default_rng(0)
        mat = BlockTriangularToeplitz.random(NT, ND, NM, rng=rng)
        service = SolverService(EngineCache(64 * 2**20))
        handle = service.register(mat, builder=lambda: FFTMatvec(mat, validate="abft"))
        good = [rng.standard_normal((NT, NM)) for _ in range(3)]
        bad = rng.standard_normal((NT, NM))
        bad[3, 5] = np.nan

        async def main():
            async with service:
                return await asyncio.gather(
                    *(service.matvec(handle, m, tenant=f"t{i}") for i, m in enumerate(good)),
                    service.matvec(handle, bad, tenant="t3"),
                    return_exceptions=True,
                )

        *got, refused = asyncio.run(main())
        solo = FFTMatvec(mat)
        for m, y in zip(good, got):
            assert np.array_equal(y, solo.matvec(m))
        assert isinstance(refused, NumericalHealthError)
        assert refused.phase == "submit"
        stats = service.stats()
        assert (stats.sdc_detections, stats.sdc_rebuilds, stats.flush_retries) == (0, 0, 0)
        assert (stats.completed, stats.failed) == (3, 0)
        assert stats.max_batch == 3  # the good ones still shared one pass
