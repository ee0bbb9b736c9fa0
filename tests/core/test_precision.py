"""Tests for the 5-phase precision configuration."""

import pytest

from repro.core.precision import PHASE_NAMES, PrecisionConfig
from repro.util.dtypes import Precision
from repro.util.validation import ReproError


class TestParse:
    def test_paper_optimum(self):
        cfg = PrecisionConfig.parse("dssdd")
        assert cfg.pad is Precision.DOUBLE
        assert cfg.fft is Precision.SINGLE
        assert cfg.sbgemv is Precision.SINGLE
        assert cfg.ifft is Precision.DOUBLE
        assert cfg.unpad is Precision.DOUBLE

    def test_roundtrip_str(self):
        for s in ("ddddd", "sssss", "dssds", "sdsds"):
            assert str(PrecisionConfig.parse(s)) == s

    def test_case_insensitive(self):
        assert str(PrecisionConfig.parse("DSSDD")) == "dssdd"

    @pytest.mark.parametrize("bad", ["", "dd", "dddddd", "dxsdd", "12345"])
    def test_invalid(self, bad):
        with pytest.raises(ReproError):
            PrecisionConfig.parse(bad)

    def test_config_passthrough(self):
        cfg = PrecisionConfig.all_double()
        assert PrecisionConfig.parse(cfg) is cfg


class TestEnumeration:
    def test_all_32_configs(self):
        configs = list(PrecisionConfig.all_configs())
        assert len(configs) == 32
        assert len({str(c) for c in configs}) == 32

    def test_baseline_included(self):
        assert "ddddd" in {str(c) for c in PrecisionConfig.all_configs()}

    def test_all_double_all_single(self):
        assert PrecisionConfig.all_double().is_all_double
        assert not PrecisionConfig.parse("sssss").is_all_double
        assert PrecisionConfig.parse("sssss").n_single == 5


class TestAccessors:
    def test_phase_by_name(self):
        cfg = PrecisionConfig.parse("dsdsd")
        assert cfg.phase("fft") is Precision.SINGLE
        assert cfg.phase("ifft") is Precision.SINGLE
        assert cfg.phase("sbgemv") is Precision.DOUBLE

    def test_unknown_phase(self):
        with pytest.raises(ReproError):
            PrecisionConfig.all_double().phase("fft2")

    def test_phases_tuple_order(self):
        cfg = PrecisionConfig.parse("sdsds")
        assert [p.char for p in cfg.phases] == list("sdsds")
        assert PHASE_NAMES == ("pad", "fft", "sbgemv", "ifft", "unpad")

    def test_n_single(self):
        assert PrecisionConfig.parse("dssdd").n_single == 2


class TestReorderPrecision:
    def test_lowest_of_neighbours(self):
        # paper footnote 8: reorders run at the lowest adjacent precision
        cfg = PrecisionConfig.parse("dsdsd")
        assert cfg.reorder_precision("fft", "sbgemv") is Precision.SINGLE
        assert cfg.reorder_precision("sbgemv", "ifft") is Precision.SINGLE

    def test_double_neighbours(self):
        cfg = PrecisionConfig.all_double()
        assert cfg.reorder_precision("fft", "sbgemv") is Precision.DOUBLE

    def test_hashable_and_equal(self):
        a = PrecisionConfig.parse("dssdd")
        b = PrecisionConfig.parse("dssdd")
        assert a == b
        assert len({a, b}) == 1
