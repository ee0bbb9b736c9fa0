"""Tests for the Eq. (6) error model: structure + empirical domination."""

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from repro.core.error_model import phase_error_terms, relative_error_bound
from repro.core.matvec import FFTMatvec
from repro.core.precision import PrecisionConfig
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.util.dtypes import fill_low_mantissa

from tests.conftest import rel_err


class TestStructure:
    def test_all_double_is_eps_d_level(self):
        b = relative_error_bound("ddddd", nt=1000, nm=5000, nd=100)
        assert b < 1e-11  # eps_d * problem factors

    def test_sbgemv_dominates_single_configs(self):
        # the paper: "the dominant error term comes from the SBGEMV"
        terms = phase_error_terms("sssss", nt=1000, nm=5000, nd=100)
        assert terms["sbgemv"] == max(terms.values())

    def test_sbgemv_term_scales_with_local_nm(self):
        t1 = phase_error_terms("ddsdd", nt=1000, nm=5000, nd=100, pc=1)["sbgemv"]
        t2 = phase_error_terms("ddsdd", nt=1000, nm=5000, nd=100, pc=5)["sbgemv"]
        assert t1 == pytest.approx(5 * t2)

    def test_adjoint_uses_nd(self):
        f = phase_error_terms("ddsdd", nt=100, nm=5000, nd=100)["sbgemv"]
        a = phase_error_terms("ddsdd", nt=100, nm=5000, nd=100, adjoint=True)["sbgemv"]
        assert f == pytest.approx(50 * a)  # nm/nd = 50

    def test_reduce_term_log2_pc(self):
        # subtracting the single-GPU memory-rounding part isolates the
        # paper's eps5 * log2(pc) accumulation term
        base = phase_error_terms("dddds", nt=100, nm=1000, nd=10, pc=1)["unpad"]
        t = phase_error_terms("dddds", nt=100, nm=1000, nd=10, pc=1024)["unpad"]
        t2 = phase_error_terms("dddds", nt=100, nm=1000, nd=10, pc=32)["unpad"]
        assert (t - base) == pytest.approx(2 * (t2 - base))

    def test_adjoint_reduce_uses_pr(self):
        t = phase_error_terms("dddds", nt=100, nm=1000, nd=100, pr=16, pc=4, adjoint=True)
        t1 = phase_error_terms("dddds", nt=100, nm=1000, nd=100, pr=1, pc=4, adjoint=True)
        assert t["unpad"] > t1["unpad"] > 0  # pr>1 adds the log2(pr) term

    def test_unpad_single_rounds_even_on_one_gpu(self):
        # casting the output to single is a real rounding step; Eq. (6)'s
        # reduction term alone would wrongly predict zero error at pc=1
        t = phase_error_terms("dddds", nt=10, nm=10, nd=10, pc=1)
        assert t["unpad"] > 0.0
        td = phase_error_terms("ddddd", nt=10, nm=10, nd=10, pc=1)
        assert td["unpad"] == 0.0

    def test_pad_double_commits_nothing(self):
        assert phase_error_terms("ddddd", nt=10, nm=10, nd=10)["pad"] == 0.0
        assert phase_error_terms("sdddd", nt=10, nm=10, nd=10)["pad"] > 0.0

    def test_kappa_scales_bound(self):
        b1 = relative_error_bound("sssss", nt=100, nm=100, nd=10, kappa=1.0)
        b2 = relative_error_bound("sssss", nt=100, nm=100, nd=10, kappa=7.0)
        assert b2 == pytest.approx(7 * b1)

    def test_kappa_below_one_rejected(self):
        with pytest.raises(ValueError):
            relative_error_bound("ddddd", nt=10, nm=10, nd=10, kappa=0.5)

    def test_fft_term_log_nt(self):
        t1 = phase_error_terms("dsddd", nt=1 << 10, nm=10, nd=10)["fft"]
        t2 = phase_error_terms("dsddd", nt=1 << 20, nm=10, nd=10)["fft"]
        assert t2 == pytest.approx(2 * t1)

    def test_ifft_term_log_nt(self):
        t1 = phase_error_terms("dddsd", nt=1 << 10, nm=10, nd=10)["ifft"]
        t2 = phase_error_terms("dddsd", nt=1 << 20, nm=10, nd=10)["ifft"]
        assert t2 == pytest.approx(2 * t1)

    @pytest.mark.parametrize("phase,single", [("fft", "dsddd"), ("ifft", "dddsd")])
    def test_transform_terms_scale_with_eps(self, phase, single):
        # Only the phase's own precision moves its term: eps_s / eps_d.
        ts = phase_error_terms(single, nt=1024, nm=10, nd=10)[phase]
        td = phase_error_terms("ddddd", nt=1024, nm=10, nd=10)[phase]
        assert ts / td == pytest.approx(2.0**29)


class TestEmpiricalDomination:
    """The bound must dominate measured errors (that's what bounds do)."""

    @pytest.mark.parametrize("cfg", ["sdddd", "dsddd", "ddsdd", "dddsd",
                                     "dssdd", "sssss", "ddssd", "dssds"])
    def test_bound_dominates_measured(self, cfg):
        rng = np.random.default_rng(42)
        nt, nd, nm = 64, 4, 48
        matrix = BlockTriangularToeplitz.random(nt, nd, nm, rng=rng, decay=0.05)
        eng = FFTMatvec(matrix)
        m = fill_low_mantissa(rng.standard_normal((nt, nm)))
        ref = eng.matvec(m, config="ddddd")
        measured = rel_err(eng.matvec(m, config=cfg), ref)
        kappa = matrix.condition_number_hat()
        bound = relative_error_bound(cfg, nt=nt, nm=nm, nd=nd, kappa=kappa)
        assert measured <= bound, (cfg, measured, bound)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(4, 32), st.integers(1, 4), st.integers(2, 16),
           st.integers(0, 10**5))
    def test_property_bound_dominates_all_configs(self, nt, nd, nm, seed):
        rng = np.random.default_rng(seed)
        matrix = BlockTriangularToeplitz.random(nt, nd, nm, rng=rng, decay=0.1)
        kappa = matrix.condition_number_hat()
        if not np.isfinite(kappa):
            return  # singular spectrum: the bound is vacuous
        eng = FFTMatvec(matrix)
        m = fill_low_mantissa(rng.standard_normal((nt, nm)))
        ref = eng.matvec(m, config="ddddd")
        for cfg in ("dssdd", "sssss"):
            measured = rel_err(eng.matvec(m, config=cfg), ref)
            assert measured <= relative_error_bound(
                cfg, nt=nt, nm=nm, nd=nd, kappa=kappa
            )

    @pytest.mark.parametrize("phase", ["fft", "ifft"])
    @pytest.mark.parametrize("n", [2, 16, 256, 4096])
    def test_fft_terms_dominate_measured_transform_error(self, n, phase, rng):
        # Van Loan's c * eps * log2(n) at the model's own constants: the
        # single-precision FFT / IFFT of length n the engine's single tier
        # runs (typed scipy.fft on complex64) stays inside the "fft" /
        # "ifft" term the model charges that phase at Nt = n.
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x32 = x.astype(np.complex64)
        if phase == "fft":
            cfg, exact, approx = "dsddd", np.fft.fft(x), scipy.fft.fft(x32)
        else:
            cfg, exact, approx = "dddsd", np.fft.ifft(x) * n, scipy.fft.ifft(x32) * n
        assert approx.dtype == np.complex64
        measured = np.linalg.norm(approx - exact) / np.linalg.norm(exact)
        assert measured <= phase_error_terms(cfg, nt=n, nm=1, nd=1)[phase]

    def test_adjoint_bound_dominates(self):
        rng = np.random.default_rng(7)
        nt, nd, nm = 32, 4, 32
        matrix = BlockTriangularToeplitz.random(nt, nd, nm, rng=rng, decay=0.05)
        eng = FFTMatvec(matrix)
        d = fill_low_mantissa(rng.standard_normal((nt, nd)))
        ref = eng.rmatvec(d, config="ddddd")
        measured = rel_err(eng.rmatvec(d, config="ddssd"), ref)
        kappa = matrix.condition_number_hat()
        assert measured <= relative_error_bound(
            "ddssd", nt=nt, nm=nm, nd=nd, kappa=kappa, adjoint=True
        )
