"""Tests for the stream/event timeline over the simulated clock."""

import pytest

from repro.util.timing import Event, SimClock, Timeline, TimingReport


class TestClockAttribution:
    def test_attribute_does_not_advance(self):
        c = SimClock()
        c.attribute(1.5, phase="fft")
        assert c.now == 0.0
        assert c.phase_total("fft") == pytest.approx(1.5)

    def test_attribute_uses_open_phase(self):
        c = SimClock()
        with c.phase("pad"):
            c.attribute(0.5)
        assert c.phase_total("pad") == pytest.approx(0.5)

    def test_attribute_without_phase_is_dropped(self):
        c = SimClock()
        c.attribute(0.5)
        assert c.phase_totals() == {}

    def test_negative_attribute_raises(self):
        with pytest.raises(ValueError):
            SimClock().attribute(-1.0)

    def test_advance_to_is_monotone(self):
        c = SimClock()
        c.advance(2.0)
        c.advance_to(1.0)  # backward moves ignored
        assert c.now == pytest.approx(2.0)
        c.advance_to(3.0)
        assert c.now == pytest.approx(3.0)


class TestStreams:
    def test_streams_run_on_the_timelines_own_axis(self):
        # Streams start at zero whatever the clock reads: the span is
        # history-free, phases still land on the clock, and sync
        # advances it by the span.
        c = SimClock()
        c.advance(1.0 / 3.0)
        tl = Timeline(c)
        s = tl.stream("a")
        assert s.cursor == 0.0
        s.charge(0.1, phase="pad")
        s.charge(0.2, phase="fft")
        assert c.now == 1.0 / 3.0  # wall advances only at sync
        assert tl.sync() == 0.1 + 0.2
        assert c.now == 1.0 / 3.0 + (0.1 + 0.2)
        assert c.phase_totals() == {"pad": 0.1, "fft": 0.2}
        # A stream made after a sync starts there, and a later sync
        # adds only what was charged after the first.
        b = tl.stream("b")
        assert b.cursor == 0.1 + 0.2
        b.charge(0.5)
        assert tl.sync() == pytest.approx(0.8)
        assert c.now == pytest.approx(1.0 / 3.0 + 0.8)

    def test_stream_is_cached_by_name(self):
        tl = Timeline()
        assert tl.stream("x") is tl.stream("x")

    def test_charge_advances_cursor_not_clock(self):
        tl = Timeline()
        s = tl.stream("comm")
        s.charge(0.5, phase="pad")
        assert s.cursor == pytest.approx(0.5)
        assert tl.clock.now == 0.0
        assert tl.clock.phase_total("pad") == pytest.approx(0.5)

    def test_negative_charge_raises(self):
        with pytest.raises(ValueError):
            Timeline().stream("s").charge(-0.1)

    def test_record_and_wait(self):
        tl = Timeline()
        a, b = tl.stream("a"), tl.stream("b")
        a.charge(2.0)
        ev = a.record("done")
        assert isinstance(ev, Event)
        assert ev.time == pytest.approx(2.0)
        b.charge(0.5)
        b.wait(ev)
        assert b.cursor == pytest.approx(2.0)  # stalled to the event
        b.wait(ev)  # waiting on a past event is a no-op
        assert b.cursor == pytest.approx(2.0)

    def test_wall_is_max_over_streams(self):
        tl = Timeline()
        tl.stream("comm").charge(1.0)
        tl.stream("compute").charge(3.0)
        assert tl.frontier == pytest.approx(3.0)
        assert tl.sync() == pytest.approx(3.0)
        assert tl.clock.now == pytest.approx(3.0)

    def test_sync_joins_all_streams(self):
        tl = Timeline()
        a, b = tl.stream("a"), tl.stream("b")
        a.charge(2.0)
        tl.sync()
        assert b.cursor == pytest.approx(2.0)

    def test_serial_on_one_stream_sums(self):
        # A single stream degenerates to the old serial clock.
        tl = Timeline()
        s = tl.stream("serial")
        for t in (0.25, 0.5, 0.125):
            s.charge(t)
        assert tl.sync() == pytest.approx(0.875)

    def test_overlap_hides_the_shorter_side(self):
        # Prefetch pattern: comm 1s concurrent with compute 3s, then a
        # dependent 1s tail on comm -> 4s, not 5s.
        tl = Timeline()
        comm, comp = tl.stream("comm"), tl.stream("compute")
        comm.charge(1.0)
        comp.wait(comm.record())  # compute needs the first transfer
        comp.charge(3.0)
        comm.charge(1.0)  # prefetch overlaps the compute
        comm.wait(comp.record())
        comm.charge(1.0)  # reduce after compute
        assert tl.sync() == pytest.approx(5.0)

    def test_dependency_chain_is_critical_path(self):
        tl = Timeline()
        comm, comp = tl.stream("comm"), tl.stream("compute")
        comm.charge(2.0)  # bcast
        comp.wait(comm.record())
        comp.charge(0.5)  # short compute cannot hide the next bcast
        comm.charge(2.0)
        comp.wait(comm.record())
        comp.charge(0.5)
        assert tl.sync() == pytest.approx(4.5)


class TestTimingReportWall:
    def test_elapsed_defaults_to_total(self):
        r = TimingReport(phases={"pad": 1.0, "fft": 2.0})
        assert r.wall is None
        assert r.elapsed == pytest.approx(3.0)

    def test_wall_below_total_for_overlap(self):
        r = TimingReport(phases={"pad": 1.0, "fft": 2.0}, wall=2.5)
        assert r.elapsed == pytest.approx(2.5)
        assert r.total == pytest.approx(3.0)

    def test_averaged_carries_wall(self):
        r = TimingReport(phases={"pad": 1.0}, wall=0.8, reps=2)
        assert r.averaged().wall == pytest.approx(0.4)

    def test_merged_sums_walls(self):
        a = TimingReport(phases={"pad": 1.0}, wall=0.5)
        b = TimingReport(phases={"pad": 1.0}, wall=0.25)
        assert a.merged(b).wall == pytest.approx(0.75)
        assert a.merged(TimingReport(phases={})).wall == pytest.approx(0.5)

    def test_merged_serial_report_contributes_its_phase_sum(self):
        # A serial report (wall=None) walls in at its phase sum when
        # merged with an overlapped one — mixing schedules must not lose
        # the serial side's elapsed time.
        overlapped = TimingReport(phases={"pad": 1.0}, wall=0.5)
        serial = TimingReport(phases={"fft": 2.0})
        assert overlapped.merged(serial).wall == pytest.approx(2.5)
        assert serial.merged(overlapped).wall == pytest.approx(2.5)
        # Two serial reports stay serial (wall=None, elapsed = total).
        merged = serial.merged(TimingReport(phases={"pad": 1.0}))
        assert merged.wall is None
        assert merged.elapsed == pytest.approx(3.0)
