"""Tests for the SPMD communicator."""

import numpy as np
import pytest

from repro.comm.collectives import tree_reduce_arrays
from repro.comm.netmodel import FRONTIER_NETWORK, SIMPLE_NETWORK
from repro.comm.simcomm import SimCommunicator
from repro.util.dtypes import Precision
from repro.util.timing import SimClock, Timeline
from repro.util.validation import ReproError


@pytest.fixture
def comm():
    return SimCommunicator(4)


def _stream():
    """A stream on a fresh timeline, and the clock under it."""
    clock = SimClock()
    return clock, Timeline(clock).stream("comm")


class TestBcast:
    def test_all_ranks_receive(self, comm, rng):
        x = rng.standard_normal(10)
        out = comm.bcast(x)
        assert len(out) == 4
        for o in out:
            np.testing.assert_array_equal(o, x)

    def test_copies_are_independent(self, comm):
        out = comm.bcast(np.zeros(3))
        out[0][0] = 7.0
        assert out[1][0] == 0.0

    def test_a_receive_buffer_that_is_the_payload_is_delivered_in_place(self, comm):
        # In-process ranks that share the sender's bits get no copy; the
        # charge and the counters are the broadcast's all the same.
        x, recv = np.arange(3.0), np.zeros(3)
        shared = SimCommunicator(4)
        (_, s_shared), (_, s_comm) = _stream(), _stream()
        with shared.on_stream(s_shared):
            out = shared.bcast(x, out=[None, x, recv, x])
        assert [o is x for o in out] == [True, True, False, True]
        np.testing.assert_array_equal(recv, x)
        with comm.on_stream(s_comm):
            comm.bcast(x, out=[None, np.zeros(3), np.zeros(3), np.zeros(3)])
        assert (s_shared.cursor, shared.op_counts, shared.op_bytes) == (
            s_comm.cursor, comm.op_counts, comm.op_bytes
        )

    def test_invalid_root(self, comm):
        with pytest.raises(ReproError):
            comm.bcast(np.zeros(2), root=4)

    def test_charges_its_stream(self, comm):
        _, s = _stream()
        with comm.on_stream(s):
            comm.bcast(np.zeros(1000))
        assert s.cursor > 0.0


class TestReduce:
    def test_sums_contributions(self, comm, rng):
        arrays = [rng.standard_normal(8) for _ in range(4)]
        out = comm.reduce(arrays)
        np.testing.assert_allclose(out, np.sum(arrays, axis=0), rtol=1e-13, atol=1e-13)

    def test_wrong_count(self, comm):
        with pytest.raises(ReproError, match="4 per-rank"):
            comm.reduce([np.zeros(2)] * 3)

    def test_precision(self, comm, rng):
        arrays = [rng.standard_normal(8) for _ in range(4)]
        out = comm.reduce(arrays, precision=Precision.SINGLE)
        assert out.dtype == np.float32

    def test_phase_attribution(self, rng):
        clock, s = _stream()
        comm = SimCommunicator(4, net=FRONTIER_NETWORK)
        with comm.on_stream(s):
            comm.reduce([rng.standard_normal(4)] * 4, phase="unpad")
        assert clock.phase_total("unpad") > 0

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
    def test_sum_is_the_rank_indexed_tree(self, rng, size):
        # The Phase-5 grouping: bit for bit the adjacent-pair tree over
        # rank index, at the accumulation precision asked for.
        arrays = [rng.standard_normal(16) * 10.0 ** rng.uniform(-8, 8, 16) for _ in range(size)]
        comm = SimCommunicator(size)
        for precision in (None, Precision.SINGLE):
            want = tree_reduce_arrays(arrays, precision=precision)
            assert np.array_equal(comm.reduce(arrays, precision=precision), want)

    def test_invalid_root(self, comm):
        with pytest.raises(ReproError, match="root 4"):
            comm.reduce([np.zeros(2)] * 4, root=4)

    def test_contributions_untouched(self, comm, rng):
        arrays = [rng.standard_normal(8) for _ in range(4)]
        before = [a.copy() for a in arrays]
        comm.reduce(arrays, precision=Precision.SINGLE)
        comm.reduce(arrays)
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before))


class TestAccounting:
    def test_collective_calls_counted(self, comm, rng):
        comm.bcast(np.zeros(4))
        comm.reduce([rng.standard_normal(4)] * 4)
        assert comm.collective_calls == 2
        assert comm.bytes_communicated > 0

    def test_size_one_comm_is_free(self, rng):
        clock, s = _stream()
        c = SimCommunicator(1, net=FRONTIER_NETWORK)
        with c.on_stream(s):
            c.bcast(np.zeros(100))
            c.reduce([np.zeros(100)])
        assert s.cursor == clock.phase_total("comm") == 0.0

    def test_span_defaults_to_size(self):
        assert SimCommunicator(8).span == 8
        assert SimCommunicator(8, span=100).span == 100


class TestOpAccounting:
    def test_per_op_bytes_tracked(self, comm, rng):
        comm.bcast(np.zeros(4))  # 32 bytes to 3 peers
        comm.reduce([rng.standard_normal(2)] * 4)  # 16 bytes from 3 peers
        assert comm.op_bytes["bcast"] == pytest.approx(32.0 * 3)
        assert comm.op_bytes["reduce"] == pytest.approx(16.0 * 3)
        assert comm.bytes_communicated == pytest.approx(
            sum(comm.op_bytes.values())
        )

    def test_counters_cover_the_two_engine_collectives(self, comm):
        # The grid engines broadcast down columns and reduce along rows;
        # nothing else is simulated, so nothing else is counted.
        assert set(comm.op_counts) == set(comm.op_bytes) == {"bcast", "reduce"}

    def test_reset_op_counts(self, comm, rng):
        _, s = _stream()
        with comm.on_stream(s):
            comm.bcast(np.zeros(8))
            comm.reduce([rng.standard_normal(4)] * 4)
        t_before = s.cursor
        comm.reset_op_counts()
        assert comm.collective_calls == 0
        assert comm.bytes_communicated == 0.0
        assert all(v == 0 for v in comm.op_counts.values())
        assert all(v == 0.0 for v in comm.op_bytes.values())
        # The charged time is untouched: only the traffic counters reset.
        assert s.cursor == t_before
        comm.bcast(np.zeros(8))
        assert comm.op_counts["bcast"] == 1


class TestStreamCharging:
    def test_on_stream_charges_stream_not_clock(self, comm, rng):
        clock = SimClock()
        clock.advance(1.0)  # the stream's axis starts at zero regardless
        tl = Timeline(clock)
        s = tl.stream("comm")
        with comm.on_stream(s):
            comm.bcast(np.zeros(1024), phase="pad")
        assert clock.now == 1.0  # wall advances only at sync
        assert s.cursor > 0.0
        assert clock.phase_total("pad") > 0  # work attributed now
        tl.sync()
        assert clock.now == 1.0 + s.cursor

    def test_stream_restored_after_block(self, comm):
        clock, s = _stream()
        with comm.on_stream(s):
            assert comm.stream is s
        assert comm.stream is None
        # Outside a block a collective charges no time; it still counts.
        comm.bcast(np.zeros(1024))
        assert (s.cursor, clock.now, clock.phase_totals()) == (0.0, 0.0, {})
        assert comm.op_counts["bcast"] == 1
