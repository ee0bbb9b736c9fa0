"""Tests for the rocblas-bench work-alike and its YAML parsing."""

import pytest

from repro.blas.bench import (
    BenchResult,
    RocblasBench,
    make_fig1_yaml,
    parse_bench_yaml,
    problem_from_config,
)
from repro.blas.types import BlasDatatype, Operation
from repro.gpu.specs import MI300X
from repro.util.validation import ReproError

# The exact entry format from the paper's AE appendix.
AE_YAML = """\
- {M: 128, N: 4096, alpha: 1.0, batch_count: 100, beta:
    0.0, cold_iters: 2, incx: 1, incy: 1, iters: 10,
    lda: 128, rocblas_function:
    rocblas_sgemv_strided_batched, stride_a: 524288,
    stride_x: 4096, stride_y: 128, transA: T}
"""


class TestYamlParser:
    def test_ae_appendix_entry(self):
        entries = parse_bench_yaml(AE_YAML)
        assert len(entries) == 1
        e = entries[0]
        assert e["M"] == 128 and e["N"] == 4096
        assert e["alpha"] == 1.0
        assert e["rocblas_function"] == "rocblas_sgemv_strided_batched"
        assert e["transA"] == "T"

    def test_multiple_entries_and_comments(self):
        text = (
            "# config\n- {M: 8, N: 16, rocblas_function: rocblas_dgemv_strided_batched, transA: T}\n"
            "- {M: 4, N: 4, rocblas_function: rocblas_zgemv_strided_batched, transA: H}\n"
        )
        entries = parse_bench_yaml(text)
        assert len(entries) == 2
        assert entries[1]["transA"] == "H"

    def test_malformed_pair(self):
        with pytest.raises(ReproError):
            parse_bench_yaml("- {M 128}")

    def test_empty(self):
        assert parse_bench_yaml("") == []

    def test_scalar_types(self):
        e = parse_bench_yaml("- {a: -3, b: 2.5e-1, c: hello}")[0]
        assert e["a"] == -3 and isinstance(e["a"], int)
        assert e["b"] == pytest.approx(0.25)
        assert e["c"] == "hello"


class TestProblemFromConfig:
    def test_roundtrip(self):
        cfg = parse_bench_yaml(AE_YAML)[0]
        p = problem_from_config(cfg)
        assert (p.m, p.n, p.batch) == (128, 4096, 100)
        assert p.datatype is BlasDatatype.S
        assert p.operation is Operation.T

    def test_h_on_real_coerced_to_t(self):
        cfg = {"M": 8, "N": 8, "rocblas_function": "rocblas_dgemv_strided_batched", "transA": "H"}
        assert problem_from_config(cfg).operation is Operation.T

    def test_unknown_function(self):
        with pytest.raises(ReproError):
            problem_from_config({"M": 1, "N": 1, "rocblas_function": "rocblas_dgemm"})


class TestMakeFig1Yaml:
    def test_conventions(self):
        text = make_fig1_yaml([(128, 4096)], ["z"])
        e = parse_bench_yaml(text)[0]
        # AE appendix: M = lda = stride_y, N = stride_x, stride_a = M*N
        assert e["M"] == e["lda"] == e["stride_y"] == 128
        assert e["N"] == e["stride_x"] == 4096
        assert e["stride_a"] == 128 * 4096
        assert e["transA"] == "H"  # complex -> H
        assert e["batch_count"] == 100

    def test_real_uses_t(self):
        e = parse_bench_yaml(make_fig1_yaml([(8, 8)], ["s"]))[0]
        assert e["transA"] == "T"


class TestBench:
    def test_builds_differ_on_transpose(self):
        yaml_text = make_fig1_yaml([(128, 4096)], ["z"])
        old = RocblasBench(MI300X, build="rocblas").run_yaml(yaml_text)[0]
        new = RocblasBench(MI300X, build="optimized").run_yaml(yaml_text)[0]
        assert new.gbytes_per_s > old.gbytes_per_s
        assert old.kernel == "rocblas_sbgemv"
        assert new.kernel == "optimized_sbgemv"

    def test_pct_of_peak_bounded(self):
        yaml_text = make_fig1_yaml([(256, 256), (512, 512)], ["s", "d"])
        for r in RocblasBench(MI300X, build="optimized").run_yaml(yaml_text):
            assert 0 < r.pct_of_peak < 1

    def test_invalid_build(self):
        with pytest.raises(ReproError):
            RocblasBench(MI300X, build="debug")

    def test_comparison_table(self):
        y = make_fig1_yaml([(128, 4096)], ["c"])
        old = RocblasBench(MI300X, build="rocblas").run_yaml(y)
        new = RocblasBench(MI300X, build="optimized").run_yaml(y)
        table = RocblasBench.comparison_table(old, new)
        assert "128x4096" in table and "speedup" in table

    def test_comparison_table_mismatch(self):
        y1 = make_fig1_yaml([(128, 4096)], ["c"])
        y2 = make_fig1_yaml([(256, 256)], ["c"])
        old = RocblasBench(MI300X, build="rocblas").run_yaml(y1)
        new = RocblasBench(MI300X, build="optimized").run_yaml(y2)
        with pytest.raises(ReproError):
            RocblasBench.comparison_table(old, new)

    @pytest.mark.parametrize("dt", "sdcz")
    def test_gemm_entry_is_refused(self, dt):
        # The bench runs Figure 1's SBGEMV configs only: an SBGEMM entry is
        # an unsupported function, not a row silently run as a GEMV.
        text = make_fig1_yaml([(128, 4096)], [dt]) + (
            "- {M: 128, N: 1024, K: 8, batch_count: 100, "
            f"rocblas_function: rocblas_{dt}gemm_strided_batched, transA: T}}\n"
        )
        with pytest.raises(ReproError, match="unsupported rocblas_function"):
            RocblasBench(MI300X, build="optimized").run_yaml(text)

