"""Tests for the device-memory footprint model."""

import numpy as np
import pytest

from repro.gpu.specs import MI250X_GCD, MI300X, MI355X
from repro.perf.memory_model import (
    MatvecMemoryFootprint,
    matvec_memory,
    min_gpus_for_problem,
)


class TestFootprint:
    def test_fhat_dominates_at_paper_size(self):
        fp = matvec_memory(5000, 100, 1000, "ddddd")
        assert fp.fhat_double == 1001 * 100 * 5000 * 16  # ~8 GB
        assert fp.fhat_double > 10 * fp.vector_workspaces

    def test_single_copy_only_when_needed(self):
        only_double = matvec_memory(100, 10, 50, configs="ddddd")
        assert only_double.fhat_single == 0
        only_single = matvec_memory(100, 10, 50, configs="dssdd")
        assert only_single.fhat_double == 0
        # The complex64 spectrum and its transpose: one complex128's bytes.
        assert only_single.fhat_single == only_double.fhat_double

    def test_multiple_configs_union(self):
        fp = matvec_memory(100, 10, 50, configs=["ddddd", "ddsdd", "dssdd"])
        assert fp.fhat_single > 0

    def test_paper_size_fits_single_gcd(self):
        # the single-GPU benchmarks ran on one 64 GB MI250X GCD
        fp = matvec_memory(5000, 100, 1000, configs=["ddddd", "dssdd"])
        assert fp.total <= MI250X_GCD.memory_bytes

    def test_total_is_sum(self):
        fp = MatvecMemoryFootprint(100, 50, 25)
        assert fp.total == 175


class TestMinGpus:
    def test_billion_parameter_problem_scale(self):
        # paper Section 4.2.2: the 1B-parameter problem of [21] needs
        # ~512 x 80 GB = 640 MI250X-GCD-equivalents. With Nm*Nt ~ 1e9:
        nm_global, nt, nd = 1_000_000, 1000, 600
        p250 = min_gpus_for_problem(nm_global, nd, nt, MI250X_GCD)
        assert 256 <= p250 <= 2048  # same order as the paper's 640

    def test_newer_gpus_need_fewer(self):
        nm_global, nt, nd = 1_000_000, 1000, 600
        p250 = min_gpus_for_problem(nm_global, nd, nt, MI250X_GCD)
        p300 = min_gpus_for_problem(nm_global, nd, nt, MI300X)
        p355 = min_gpus_for_problem(nm_global, nd, nt, MI355X)
        # 192 GB and 288 GB vs 64 GB: "larger problems can fit on fewer
        # numbers of GPUs"
        assert p355 <= p300 <= p250
        assert p300 < p250

    def test_billion_parameter_counts_at_the_engines_bytes(self):
        # ddddd + dssdd hold 16 + 8 + 8 bytes per spectrum element.
        fp = matvec_memory(1000, 600, 1000, ("ddddd", "dssdd"))
        assert fp.fhat_double + fp.fhat_single == 1001 * 600 * 1000 * 32
        assert min_gpus_for_problem(1_000_000, 600, 1000, MI250X_GCD) == 512
        assert min_gpus_for_problem(1_000_000, 600, 1000, MI300X) == 128

    def test_small_problem_one_gpu(self):
        assert min_gpus_for_problem(1000, 10, 100, MI300X) == 1


class TestAgainstAllocator:
    def test_footprint_matches_engine_allocs(self, rng):
        # allocate the modeled footprint on a simulated device: it must
        # fit exactly when the model says it does
        from repro.gpu.memory import DeviceAllocator

        fp = matvec_memory(5000, 100, 1000, configs=["ddddd", "dssdd"])
        alloc = DeviceAllocator(MI250X_GCD)
        handles = [
            alloc.malloc(fp.fhat_double, tag="fhat_d"),
            alloc.malloc(fp.fhat_single, tag="fhat_s"),
            alloc.malloc(fp.vector_workspaces, tag="work"),
        ]
        assert alloc.in_use >= fp.total
        for h in handles:
            alloc.free(h)
        assert alloc.in_use == 0
