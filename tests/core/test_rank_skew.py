"""What an irregular partition changes on the grid engine, and what it may not.

* Time: every rank owns a device of the engine's one ``spec`` on a
  private clock, and :meth:`ParallelFFTMatvec.rank_compute_report` shows
  the skew an irregular partition injects.
* Bits, in the default ``reduction="fast"`` mode: repartitioning the
  axis a direction does not contract over regroups no accumulation, so
  the forward apply is bitwise the same across row partitions and the
  adjoint across column partitions, at any precision config.
"""

import numpy as np
import pytest

from repro.comm.grid import ProcessGrid
from repro.comm.netmodel import SIMPLE_NETWORK
from repro.comm.partition import skewed_extents
from repro.core.parallel import ParallelFFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.specs import A100, H100, MI250X_GCD, MI300X, MI355X
from repro.util.validation import ReproError

NT, ND, NM, K = 128, 16, 256, 8
# The paper's two Frontier configs, all-single, and an alternating mix.
CONFIGS = ("dssdd", "dssds", "sssss", "sdsds")


@pytest.fixture(scope="module")
def problem():
    # Large enough that per-phase traffic, not launch overhead, carries
    # each rank's charge, so owning more columns costs measurably more.
    rng = np.random.default_rng(42)
    matrix = BlockTriangularToeplitz.random(NT, ND, NM, rng=rng, decay=0.05)
    D = rng.standard_normal((NT, ND, K))
    M = rng.standard_normal((NT, NM, K))
    return matrix, D, M


def _engine(matrix, spec=MI300X, **kw):
    return ParallelFFTMatvec(
        matrix, ProcessGrid(2, 2, net=SIMPLE_NETWORK), spec=spec, max_block_k=4, **kw
    )


def _timed_rmatmat(eng, D):
    t0 = eng.grid.clock.now
    out = eng.rmatmat(D, overlap=False)
    return eng.grid.clock.now - t0, out


class TestRankComputeReport:
    def test_shape_and_skew(self, problem):
        matrix, D, _ = problem
        eng = _engine(matrix, col_ranges=skewed_extents(NM, 2, 0.5))
        eng.rmatmat(D)
        report = eng.rank_compute_report()
        assert set(report) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        # Column 0 owns the big parameter share, so its ranks charge more.
        assert report[(0, 0)] > report[(0, 1)]
        assert report[(1, 0)] > report[(1, 1)]

    def test_requires_devices(self, problem):
        matrix, _, _ = problem
        with pytest.raises(ReproError, match="per-rank devices"):
            _engine(matrix, spec=None).rank_compute_report()

    def test_row_skew_shows_on_the_forward_rows(self, problem):
        matrix, _, M = problem
        eng = _engine(matrix, row_ranges=skewed_extents(ND, 2, 0.5))
        eng.matmat(M)
        report = eng.rank_compute_report()
        # Row 0 owns the big sensor share; ranks of one row tie.
        assert report[(0, 0)] > report[(1, 0)]
        assert report[(0, 0)] == report[(0, 1)]
        assert report[(1, 0)] == report[(1, 1)]

    def test_spread_grows_with_skew(self, problem):
        matrix, D, _ = problem
        spreads = []
        for skew in (0.0, 0.25, 0.5, 1.0):
            eng = _engine(matrix, col_ranges=skewed_extents(NM, 2, skew))
            eng.rmatmat(D)
            report = eng.rank_compute_report()
            spreads.append(max(report.values()) / min(report.values()))
        assert spreads[0] == 1.0
        assert spreads == sorted(spreads) and len(set(spreads)) == len(spreads)

    def test_cumulative_and_excludes_setup(self, problem):
        matrix, _, M = problem
        eng = _engine(matrix)
        assert set(eng.rank_compute_report().values()) == {0.0}
        eng.matmat(M)
        once = eng.rank_compute_report()
        eng.matmat(M)
        twice = eng.rank_compute_report()
        for rc in once:
            assert twice[rc] == pytest.approx(2 * once[rc], rel=1e-12)


class TestBitwiseAcrossPartitions:
    def test_forward_matmat_across_row_partitions(self, problem):
        matrix, _, M = problem
        outs = [
            _engine(matrix, row_ranges=rows).matmat(M)
            for rows in (None, skewed_extents(ND, 2, 0.6), [(0, 3), (3, ND)])
        ]
        for out in outs[1:]:
            assert np.array_equal(out, outs[0])

    def test_adjoint_rmatmat_across_col_partitions(self, problem):
        matrix, D, _ = problem
        t_even, even = _timed_rmatmat(_engine(matrix), D)
        t_skew, skew = _timed_rmatmat(_engine(matrix, col_ranges=skewed_extents(NM, 2, 0.5)), D)
        _, other = _timed_rmatmat(_engine(matrix, col_ranges=[(0, 100), (100, NM)]), D)
        assert t_skew > t_even  # the irregular partition charges real skew...
        assert np.array_equal(skew, even)  # ...but never moves a bit
        assert np.array_equal(other, even)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_forward_matmat_every_config(self, problem, config):
        matrix, _, M = problem
        even = _engine(matrix).matmat(M, config)
        skew = _engine(matrix, row_ranges=skewed_extents(ND, 2, 0.6)).matmat(M, config)
        assert np.array_equal(skew, even)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_adjoint_rmatmat_every_config(self, problem, config):
        matrix, D, _ = problem
        even = _engine(matrix).rmatmat(D, config)
        skew = _engine(matrix, col_ranges=skewed_extents(NM, 2, 0.5)).rmatmat(D, config)
        assert np.array_equal(skew, even)

    @pytest.mark.parametrize("adjoint", [False, True], ids=["F", "Fstar"])
    def test_vector_apply(self, problem, adjoint):
        matrix, D, M = problem
        if adjoint:
            even = _engine(matrix).rmatvec(D[:, :, 0], "dssdd")
            skew = _engine(matrix, col_ranges=skewed_extents(NM, 2, 0.5)).rmatvec(
                D[:, :, 0], "dssdd"
            )
        else:
            even = _engine(matrix).matvec(M[:, :, 0], "dssdd")
            skew = _engine(matrix, row_ranges=skewed_extents(ND, 2, 0.6)).matvec(
                M[:, :, 0], "dssdd"
            )
        assert np.array_equal(skew, even)


class TestSpec:
    def test_registry_name_is_the_spec(self, problem):
        matrix, _, _ = problem
        by_name = _engine(matrix, spec="mi300x")
        assert all(d.spec is MI300X for d in by_name.devices.values())
        assert by_name.geometry_key() == _engine(matrix).geometry_key()
        assert by_name.geometry_key() != _engine(matrix, spec=MI250X_GCD).geometry_key()

    @pytest.mark.parametrize(
        "spec",
        [{(r, c): MI300X for r in range(2) for c in range(2)}, [[MI300X] * 2] * 2],
        ids=["mapping", "nested"],
    )
    def test_per_rank_forms_rejected(self, problem, spec):
        matrix, _, _ = problem
        with pytest.raises(ReproError, match="spec must be"):
            _engine(matrix, spec=spec)

    @pytest.mark.parametrize("gpu", [MI250X_GCD, MI300X, MI355X, A100, H100], ids=lambda g: g.name)
    def test_every_registered_gpu_by_name(self, problem, gpu):
        matrix, _, _ = problem
        eng = _engine(matrix, spec=gpu.name)
        assert eng.spec is gpu
        assert all(d.spec is gpu for d in eng.devices.values())
        assert gpu.name in eng.geometry_key()

    def test_unknown_name_rejected(self, problem):
        matrix, _, _ = problem
        with pytest.raises(ReproError, match="unknown GPU"):
            _engine(matrix, spec="not-a-gpu")

    def test_none_builds_no_devices(self, problem):
        matrix, _, _ = problem
        eng = _engine(matrix, spec=None)
        assert eng.spec is None
        assert all(d is None for d in eng.devices.values())

    @pytest.mark.parametrize("spec", [[MI300X] * 4, 3.0], ids=["flat", "number"])
    def test_other_types_rejected(self, problem, spec):
        matrix, _, _ = problem
        with pytest.raises(ReproError, match="spec must be"):
            _engine(matrix, spec=spec)
