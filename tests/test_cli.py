"""Tests for the fft-matvec CLI."""

import os

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.nm == 100 and args.nd == 8 and args.nt == 64
        assert args.prec == "ddddd"

    def test_artifact_flags(self):
        args = build_parser().parse_args(
            ["-nm", "5000", "-nd", "100", "-Nt", "1000", "-prec", "dssdd",
             "-rand", "-raw"]
        )
        assert (args.nm, args.nd, args.nt) == (5000, 100, 1000)
        assert args.prec == "dssdd" and args.rand and args.raw


class TestSelfTest:
    def test_passes(self, capsys):
        assert main(["-t"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out


class TestRuns:
    def test_basic_run(self, capsys):
        rc = main(["-nm", "32", "-nd", "4", "-Nt", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "F matvec" in out and "sbgemv" in out

    def test_raw_output_parseable(self, capsys):
        rc = main(["-nm", "32", "-nd", "4", "-Nt", "16", "-raw"])
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if "," in l]
        parsed = dict(l.split(",", 1) for l in lines[:8])
        assert "total" in parsed
        float(parsed["total"])  # parseable

    def test_prec_flag(self, capsys):
        rc = main(["-nm", "32", "-nd", "4", "-Nt", "16", "-prec", "dssdd", "-rand"])
        assert rc == 0
        assert "dssdd" in capsys.readouterr().out

    def test_invalid_prec(self, capsys):
        assert main(["-prec", "dq"]) == 2

    def test_invalid_dims(self):
        assert main(["-nm", "-5"]) == 2
        assert main(["-reps", "0"]) == 2

    def test_reps_averaging(self, capsys):
        assert main(["-nm", "16", "-nd", "2", "-Nt", "8", "-reps", "3"]) == 0

    def test_multi_gpu_auto_grid(self, capsys):
        rc = main(["-nm", "64", "-nd", "4", "-Nt", "16", "-p", "4"])
        assert rc == 0
        assert "process grid" in capsys.readouterr().out

    def test_multi_gpu_explicit_grid(self, capsys):
        rc = main(["-nm", "64", "-nd", "4", "-Nt", "16", "-p", "4",
                   "-pr", "2", "-pc", "2"])
        assert rc == 0
        assert "2 x 2" in capsys.readouterr().out

    def test_gpu_selection(self, capsys):
        rc = main(["-nm", "16", "-nd", "2", "-Nt", "8", "-gpu", "MI355X"])
        assert rc == 0
        assert "MI355X" in capsys.readouterr().out


class TestSave:
    def test_saves_outputs(self, tmp_path, capsys):
        rc = main(["-nm", "16", "-nd", "2", "-Nt", "8", "-prec", "dssdd",
                   "-s", str(tmp_path)])
        assert rc == 0
        d = np.load(tmp_path / "d_dssdd.npy")
        m = np.load(tmp_path / "m_dssdd.npy")
        assert d.shape == (8, 2) and m.shape == (8, 16)

    def test_saved_outputs_support_error_comparison(self, tmp_path, capsys):
        # the artifact workflow: save double and mixed outputs, compare
        for prec in ("ddddd", "dssdd"):
            main(["-nm", "16", "-nd", "2", "-Nt", "8", "-rand",
                  "-prec", prec, "-s", str(tmp_path), "-seed", "9"])
        d_ref = np.load(tmp_path / "d_ddddd.npy")
        d_mix = np.load(tmp_path / "d_dssdd.npy")
        err = np.linalg.norm(d_mix - d_ref) / np.linalg.norm(d_ref)
        assert 0 < err < 1e-4


class TestParetoMode:
    def test_pareto_sweep_runs(self, capsys):
        rc = main(["-nm", "512", "-nd", "8", "-Nt", "64", "--pareto", "1e-7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "optimal F config" in out
        assert "Mixed-precision sweep" in out

    def test_pareto_adjoint(self, capsys):
        rc = main(["-nm", "256", "-nd", "8", "-Nt", "32", "--pareto", "1e-7",
                   "--adjoint"])
        assert rc == 0
        assert "optimal F* config" in capsys.readouterr().out

    def test_pareto_impossible_tolerance(self, capsys):
        rc = main(["-nm", "64", "-nd", "4", "-Nt", "16", "--pareto", "1e-30"])
        # only ddddd has zero error vs itself... which satisfies any
        # positive tolerance, so the sweep still succeeds
        assert rc == 0

    def test_pareto_invalid_tolerance(self):
        assert main(["--pareto", "-1"]) == 2


class TestServeBenchMode:
    def test_serve_bench_runs_and_prints_table(self, capsys):
        rc = main(
            ["--serve-bench", "-Nt", "16", "-nd", "4", "-nm", "24",
             "--requests", "24", "--rates", "2000", "--tenants", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "coalesced" in out and "serve_one" in out
        assert "wait ms" in out and "exec ms" in out  # where the median went
        assert "window" not in out
        assert "bitwise=True" in out
        assert "within_budget=True" in out

    def test_serve_bench_bad_rates(self, capsys):
        assert main(["--serve-bench", "--rates", "abc"]) == 2
        assert main(["--serve-bench", "--rates", "-5"]) == 2

    def test_serve_bench_bad_knobs(self, capsys):
        assert main(["--serve-bench", "--requests", "0"]) == 2
        assert main(["--serve-bench", "--budget-mb", "0"]) == 2

    def test_serve_bench_has_no_window_knob(self, capsys):
        # The batching timer is gone, and its flag with it.
        with pytest.raises(SystemExit):
            main(["--serve-bench", "--window-ms", "2"])
