"""Tests for the GPU architecture registry."""

import pytest

from repro.gpu.specs import A100, H100, MI250X_GCD, MI300X, MI355X, GPUSpec, get_gpu
from repro.util.dtypes import Precision
from repro.util.validation import ReproError


class TestRegistry:
    def test_lookup_by_name(self):
        assert get_gpu("MI300X") is MI300X
        assert get_gpu("mi300x") is MI300X

    def test_lookup_by_arch(self):
        assert get_gpu("gfx90a") is MI250X_GCD
        assert get_gpu("gfx942") is MI300X
        assert get_gpu("gfx950") is MI355X

    def test_alias(self):
        assert get_gpu("frontier") is MI250X_GCD

    def test_unknown_raises_with_known_list(self):
        with pytest.raises(ReproError, match="MI300X"):
            get_gpu("tpu-v5")

    @pytest.mark.parametrize(
        "spec", [MI250X_GCD, MI300X, MI355X, A100, H100], ids=lambda s: s.name
    )
    def test_every_spec_resolves_by_its_name(self, spec):
        assert get_gpu(spec.name) is spec
        assert get_gpu(spec.name.lower()) is spec


class TestPaperFacts:
    def test_peak_bandwidth_trend(self):
        # Section 4.1.2: 1.6 TB/s -> 5.3 TB/s -> 8 TB/s
        assert MI250X_GCD.peak_bandwidth == pytest.approx(1.6e12)
        assert MI300X.peak_bandwidth == pytest.approx(5.3e12)
        assert MI355X.peak_bandwidth == pytest.approx(8.0e12)

    def test_memory_capacities(self):
        # Section 4.2.2: 64 / 192 / 288 GB
        assert MI250X_GCD.memory_bytes == pytest.approx(64e9)
        assert MI300X.memory_bytes == pytest.approx(192e9)
        assert MI355X.memory_bytes == pytest.approx(288e9)

    def test_cdna4_lds_increase(self):
        # Section 4.1.2 notes increased LDS capacity on CDNA4.
        assert MI355X.lds_bytes > MI300X.lds_bytes

    def test_cdna_wavefront(self):
        for spec in (MI250X_GCD, MI300X, MI355X):
            assert spec.wavefront == 64

    def test_nvidia_warp(self):
        assert get_gpu("A100").wavefront == 32

    def test_sbgemv_fraction_cdna4_untuned(self):
        # CDNA4 kernels not yet tuned: fraction below CDNA2/3's 0.70.
        assert MI355X.peak_fraction(Precision.DOUBLE) < MI300X.peak_fraction(
            Precision.DOUBLE
        )

    def test_peak_fraction_default(self):
        bare = GPUSpec(
            name="X", vendor="AMD", arch="gfxX", generation="G",
            peak_bandwidth=1e12, memory_bytes=1e9,
        )
        assert bare.peak_fraction(Precision.DOUBLE) == pytest.approx(0.7)

    def test_vendors(self):
        assert MI300X.vendor == "AMD"
        assert get_gpu("H100").vendor == "NVIDIA"

    def test_max_grid_yz_limit(self):
        # the 65535 y/z grid cap the custom permutation kernel avoids
        assert MI300X.max_grid[1] == 65535
        assert MI300X.max_grid[2] == 65535
