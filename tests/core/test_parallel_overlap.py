"""Tests for the event-timeline grid schedule: overlap + per-rank skew."""

import numpy as np
import pytest

from repro.comm.collectives import tree_collective_time
from repro.comm.grid import ProcessGrid
from repro.comm.netmodel import FRONTIER_NETWORK, NetworkModel
from repro.comm.partition import check_extents, skewed_extents
from repro.core.matvec import FFTMatvec
from repro.core.parallel import ParallelFFTMatvec
from repro.core.precision import PrecisionConfig
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.device import SimulatedDevice
from repro.gpu.specs import MI250X_GCD
from repro.util.blocking import chunk_ranges
from repro.util.validation import ReproError

NT, ND, NM = 16, 8, 48
PR, PC, K = 2, 2, 16

_PHASES = ("pad", "fft", "sbgemv", "ifft", "unpad")


def make(spec=MI250X_GCD, nd=ND, nm=NM, seed=0, **kw):
    rng = np.random.default_rng(seed)
    matrix = BlockTriangularToeplitz.random(NT, nd, nm, rng=rng)
    grid = ProcessGrid(PR, PC, net=FRONTIER_NETWORK)
    eng = ParallelFFTMatvec(matrix, grid, spec=spec, **kw)
    return eng, matrix, rng


class TestOverlappedSchedule:
    def test_bitwise_identical_and_strictly_faster(self):
        # The acceptance bar: at k=16 on a 2x2 grid the overlapped
        # matmat returns bit-identical results to the serial schedule,
        # in strictly less modeled time (compute covers the prefetched
        # broadcasts; only chunk 0's broadcast and the last reduce stay
        # exposed).
        eng, _, rng = make(max_block_k=4)
        M = rng.standard_normal((NT, NM, K))

        t0 = eng.grid.clock.now
        serial = eng.matmat(M, overlap=False)
        t_serial = eng.grid.clock.now - t0

        t0 = eng.grid.clock.now
        overlapped = eng.matmat(M, overlap=True)
        t_overlap = eng.grid.clock.now - t0

        assert np.array_equal(overlapped, serial)
        assert t_overlap < t_serial
        assert eng.last_timing is not None
        assert eng.last_timing.wall == pytest.approx(t_overlap)
        # The phase sum still reports all work charged, so it exceeds
        # the overlapped wall.
        assert eng.last_timing.total > t_overlap

    def test_adjoint_bitwise_identical_and_faster(self):
        eng, _, rng = make(max_block_k=4)
        D = rng.standard_normal((NT, ND, K))
        t0 = eng.grid.clock.now
        serial = eng.rmatmat(D, overlap=False)
        t_serial = eng.grid.clock.now - t0
        t0 = eng.grid.clock.now
        overlapped = eng.rmatmat(D, overlap=True)
        t_overlap = eng.grid.clock.now - t0
        assert np.array_equal(overlapped, serial)
        assert t_overlap < t_serial

    def test_single_chunk_has_nothing_to_prefetch(self):
        # With one chunk there is no next broadcast to hide: the
        # overlapped schedule degenerates to bcast -> compute -> reduce.
        eng, _, rng = make()
        M = rng.standard_normal((NT, NM, 4))
        t0 = eng.grid.clock.now
        eng.matmat(M, overlap=False)
        t_serial = eng.grid.clock.now - t0
        t0 = eng.grid.clock.now
        eng.matmat(M, overlap=True)
        t_overlap = eng.grid.clock.now - t0
        assert t_overlap == pytest.approx(t_serial, rel=1e-12)

    def test_overlapped_by_default_serial_per_call(self):
        eng, _, rng = make(max_block_k=4)
        M = rng.standard_normal((NT, NM, 8))
        eng.matmat(M)
        assert "overlap" in eng.last_timing.label
        eng.matmat(M, overlap=False)
        assert "serial" in eng.last_timing.label

    def test_serial_schedule_reproduces_pre_timeline_charge(self):
        # The overlap-disabled schedule must charge exactly what the old
        # single-clock model charged: per chunk, one timed column
        # broadcast + the (max-)rank pipeline + one timed row reduce,
        # in program order.
        eng, matrix, rng = make(max_block_k=4)
        M = rng.standard_normal((NT, NM, K))
        cfg = PrecisionConfig.parse("ddddd")
        net = eng.grid.net
        col_span = (PR - 1) * PC + 1

        expected = 0.0
        # Independent per-rank engines on private clocks reproduce the
        # per-chunk compute charge (balanced grid: all ranks tie).
        locals_ = {}
        for (r, c), _e in eng.engines.items():
            r0, r1 = eng._row_ranges[r]
            c0, c1 = eng._col_ranges[c]
            locals_[(r, c)] = FFTMatvec(
                BlockTriangularToeplitz(matrix.blocks[:, r0:r1, c0:c1]),
                device=SimulatedDevice(MI250X_GCD),
            )
        for j0, j1 in chunk_ranges(K, 4):
            kc = j1 - j0
            c0, c1 = eng._col_ranges[0]
            bcast_bytes = NT * (c1 - c0) * kc * 8
            expected += tree_collective_time(PR, bcast_bytes, net, span=col_span)
            rank_totals = []
            for (r, c), le in locals_.items():
                cc0, cc1 = eng._col_ranges[c]
                before = {p: le.device.clock.phase_total(p) for p in _PHASES}
                le._pipeline_block(M[:, cc0:cc1, j0:j1], cfg, adjoint=False)
                rank_totals.append(
                    sum(
                        le.device.clock.phase_total(p) - before[p]
                        for p in _PHASES
                    )
                )
            expected += max(rank_totals)
            r0, r1 = eng._row_ranges[0]
            reduce_bytes = NT * (r1 - r0) * kc * 8
            expected += tree_collective_time(PC, reduce_bytes, net, span=PC)

        t0 = eng.grid.clock.now
        eng.matmat(M, overlap=False)
        charged = eng.grid.clock.now - t0
        assert charged == pytest.approx(expected, rel=1e-12)

    def test_overlap_efficiency_penalty(self):
        # A network that cannot overlap (efficiency 0) charges the
        # exposed broadcasts onto compute: slower than perfect overlap,
        # and never better than at efficiency 1.
        rng = np.random.default_rng(3)
        matrix = BlockTriangularToeplitz.random(NT, ND, NM, rng=rng)
        M = rng.standard_normal((NT, NM, K))
        walls = {}
        for eff in (1.0, 0.0):
            net = NetworkModel(
                alpha_intra=FRONTIER_NETWORK.alpha_intra,
                alpha_inter=FRONTIER_NETWORK.alpha_inter,
                beta_intra=FRONTIER_NETWORK.beta_intra,
                beta_inter=FRONTIER_NETWORK.beta_inter,
                group_size=FRONTIER_NETWORK.group_size,
                congestion_ranks=FRONTIER_NETWORK.congestion_ranks,
                overlap_efficiency=eff,
            )
            grid = ProcessGrid(PR, PC, net=net)
            eng = ParallelFFTMatvec(matrix, grid, spec=MI250X_GCD, max_block_k=4)
            t0 = grid.clock.now
            eng.matmat(M, overlap=True)
            walls[eff] = grid.clock.now - t0
        assert walls[0.0] > walls[1.0]


class TestPerRankSkew:
    def test_skewed_partition_charges_more_wall_time(self):
        # Same global problem, same grid: an irregular sensor partition
        # must cost more than the balanced one — the slowest rank gates
        # every collective.
        rng = np.random.default_rng(7)
        matrix = BlockTriangularToeplitz.random(NT, ND, NM, rng=rng)
        M = rng.standard_normal((NT, NM, K))
        walls = {}
        outs = {}
        for name, rows in (
            ("balanced", None),
            ("skewed", skewed_extents(ND, PR, skew=0.5)),
        ):
            grid = ProcessGrid(PR, PC, net=FRONTIER_NETWORK)
            eng = ParallelFFTMatvec(
                matrix, grid, spec=MI250X_GCD, row_ranges=rows, max_block_k=4
            )
            t0 = grid.clock.now
            outs[name] = eng.matmat(M)
            walls[name] = grid.clock.now - t0
        assert walls["skewed"] > walls["balanced"]
        # The partition only re-tiles the work; results agree.
        np.testing.assert_allclose(
            outs["skewed"], outs["balanced"], rtol=1e-12, atol=1e-14
        )

    def test_skew_applies_to_vector_matvec_too(self):
        rng = np.random.default_rng(8)
        matrix = BlockTriangularToeplitz.random(NT, ND, NM, rng=rng)
        m = rng.standard_normal((NT, NM))
        walls = {}
        for name, rows in (
            ("balanced", None),
            ("skewed", skewed_extents(ND, PR, skew=0.5)),
        ):
            grid = ProcessGrid(PR, PC, net=FRONTIER_NETWORK)
            eng = ParallelFFTMatvec(matrix, grid, spec=MI250X_GCD, row_ranges=rows)
            t0 = grid.clock.now
            eng.matvec(m)
            walls[name] = grid.clock.now - t0
        assert walls["skewed"] > walls["balanced"]

    def test_charge_follows_the_slowest_rank(self):
        # The compute charged between collectives equals the slowest
        # rank's private-clock time, not rank (0,0)'s.
        rng = np.random.default_rng(9)
        matrix = BlockTriangularToeplitz.random(NT, ND, NM, rng=rng)
        # Give row 1 the big sensor block: rank (0,*) is NOT the slowest.
        rows = [(0, 2), (2, ND)]
        grid = ProcessGrid(PR, PC, net=FRONTIER_NETWORK)
        eng = ParallelFFTMatvec(matrix, grid, spec=MI250X_GCD, row_ranges=rows)
        before = {p: grid.clock.phase_total(p) for p in _PHASES}
        rank_before = {
            rc: {p: d.clock.phase_total(p) for p in _PHASES}
            for rc, d in eng.devices.items()
        }
        eng.matvec(rng.standard_normal((NT, NM)))
        rank_compute = {
            rc: sum(
                d.clock.phase_total(p) - rank_before[rc][p] for p in _PHASES
            )
            for rc, d in eng.devices.items()
        }
        assert max(rank_compute, key=rank_compute.get)[0] == 1  # a row-1 rank
        comm_phases = ("pad", "unpad")
        charged_compute = sum(
            grid.clock.phase_total(p) - before[p] for p in _PHASES
        )
        # Subtract the two timed collectives to isolate compute.  The
        # timed collective is the *widest* column/row (it gates the
        # concurrent collectives) — here row 1 carries the big block.
        col_span = (PR - 1) * PC + 1
        c0, c1 = eng._col_ranges[eng._timed_col_idx]
        t_bcast = tree_collective_time(
            PR, NT * (c1 - c0) * 8, grid.net, span=col_span
        )
        assert eng._timed_row_idx == 1
        r0, r1 = eng._row_ranges[eng._timed_row_idx]
        t_reduce = tree_collective_time(PC, NT * (r1 - r0) * 8, grid.net, span=PC)
        assert charged_compute - t_bcast - t_reduce == pytest.approx(
            max(rank_compute.values()), rel=1e-12
        )
        assert comm_phases  # silence linters; phases checked via totals

    def test_comm_charge_is_placement_invariant(self):
        # All columns broadcast concurrently, so the widest payload
        # gates the wall wherever it sits in the partition; moving the
        # big part from index 0 to index 1 must not change the charge.
        rng = np.random.default_rng(11)
        matrix = BlockTriangularToeplitz.random(NT, ND, NM, rng=rng)
        m = rng.standard_normal((NT, NM))
        walls = []
        for cols in ([(0, 40), (40, NM)], [(0, 8), (8, NM)]):
            grid = ProcessGrid(PR, PC, net=FRONTIER_NETWORK)
            eng = ParallelFFTMatvec(matrix, grid, col_ranges=cols)
            t0 = grid.clock.now
            eng.matvec(m)
            walls.append(grid.clock.now - t0)
        assert walls[0] == pytest.approx(walls[1], rel=1e-12)

    def test_custom_ranges_validated(self):
        rng = np.random.default_rng(0)
        matrix = BlockTriangularToeplitz.random(NT, ND, NM, rng=rng)
        grid = ProcessGrid(PR, PC)
        with pytest.raises(ReproError, match="contiguous"):
            ParallelFFTMatvec(matrix, grid, row_ranges=[(0, 4), (5, ND)])
        with pytest.raises(ReproError, match="expected 2 ranges"):
            ParallelFFTMatvec(matrix, grid, row_ranges=[(0, ND)])
        with pytest.raises(ReproError, match="empty"):
            ParallelFFTMatvec(matrix, grid, row_ranges=[(0, 0), (0, ND)])


class TestSkewedExtents:
    def test_balanced_when_skew_zero(self):
        assert skewed_extents(8, 2, skew=0.0) == [(0, 4), (4, 8)]

    def test_first_part_gets_the_extra(self):
        ext = skewed_extents(8, 2, skew=0.5)
        assert ext[0] == (0, 6)
        assert ext[1] == (6, 8)

    def test_everyone_keeps_at_least_one(self):
        ext = skewed_extents(4, 3, skew=10.0)
        assert ext == [(0, 2), (2, 3), (3, 4)]

    def test_covers_exactly(self):
        for n, parts, skew in ((23, 3, 0.7), (8, 8, 1.0), (5, 1, 2.0)):
            ext = skewed_extents(n, parts, skew)
            check_extents(ext, n, parts)

    def test_rejects_bad_args(self):
        with pytest.raises(ReproError):
            skewed_extents(2, 4)
        with pytest.raises(ReproError):
            skewed_extents(8, 2, skew=-0.1)
