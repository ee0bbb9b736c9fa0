"""Tests for the simulated clock and timing reports."""

import pytest

from repro.util.timing import SimClock, TimingReport


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance(self):
        c = SimClock()
        c.advance(1.5)
        c.advance(0.5)
        assert c.now == pytest.approx(2.0)

    def test_negative_advance_raises(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_phase_attribution(self):
        c = SimClock()
        with c.phase("fft"):
            c.advance(1.0)
        c.advance(2.0)  # unattributed
        assert c.phase_total("fft") == pytest.approx(1.0)
        assert c.phase_total("sbgemv") == 0.0
        assert c.now == pytest.approx(3.0)

    def test_nested_phases_attribute_innermost(self):
        c = SimClock()
        with c.phase("outer"):
            c.advance(1.0)
            with c.phase("inner"):
                c.advance(2.0)
            c.advance(0.5)
        assert c.phase_total("outer") == pytest.approx(1.5)
        assert c.phase_total("inner") == pytest.approx(2.0)

    def test_phase_reentry_accumulates(self):
        c = SimClock()
        for _ in range(3):
            with c.phase("p"):
                c.advance(0.25)
        assert c.phase_total("p") == pytest.approx(0.75)


class TestTimingReport:
    def test_total_and_fraction(self):
        r = TimingReport(phases={"pad": 1.0, "sbgemv": 3.0})
        assert r.total == pytest.approx(4.0)
        assert r.fraction("sbgemv") == pytest.approx(0.75)
        assert r.phase("missing") == 0.0

    def test_empty_fraction_is_zero(self):
        assert TimingReport().fraction("pad") == 0.0

    def test_merged_and_averaged(self):
        a = TimingReport(phases={"pad": 1.0, "fft": 2.0}, reps=1)
        b = TimingReport(phases={"pad": 3.0, "unpad": 1.0}, reps=1)
        m = a.merged(b)
        assert m.reps == 2
        assert m.phases == {"pad": 4.0, "fft": 2.0, "unpad": 1.0}
        avg = m.averaged()
        assert avg.reps == 1
        assert avg.phases["pad"] == pytest.approx(2.0)

    def test_lines_human(self):
        r = TimingReport(phases={"sbgemv": 0.004, "pad": 0.001}, label="ddddd")
        lines = r.lines()
        assert any("ddddd" in ln for ln in lines)
        # canonical order: pad before sbgemv
        pad_i = next(i for i, ln in enumerate(lines) if "pad" in ln and "unpad" not in ln)
        sb_i = next(i for i, ln in enumerate(lines) if "sbgemv" in ln)
        assert pad_i < sb_i

    def test_lines_raw_parseable(self):
        r = TimingReport(phases={"fft": 0.5})
        raw = r.lines(raw=True)
        parsed = dict(ln.split(",", 1) for ln in raw)
        assert float(parsed["fft"]) == pytest.approx(0.5)
        assert float(parsed["total"]) == pytest.approx(0.5)

    def test_lines_include_extra_phases(self):
        r = TimingReport(phases={"comm": 1.0, "pad": 0.5})
        text = "\n".join(r.lines())
        assert "comm" in text
