"""The spectrum build: column panels of Nm, bitwise the whole-shape build.

``BlockTriangularToeplitz.spectrum`` transforms the padded kernel a panel
of ``_PANEL_BYTES`` at a time, scales each panel in double and writes it
frequency-major into the result at the tier asked for;
``FFTMatvec.spectrum(precision)`` builds each tier it holds that way on
first use (with the ``1/(2*Nt)`` normalization), and the constructor
books the launches the real code issues over the whole shape.  The
contract:

* the complex128 spectrum is bitwise what the whole-shape permute ->
  D2Z -> permute build returns, at every panel width, ragged last panel
  and odd Nt, and the complex64 tier is bitwise that spectrum, scaled,
  then cast;
* a device books exactly the whole-shape launches — two permutations
  around one whole-batch D2Z — whatever the panel count, on one engine
  and on every rank of a grid;
* an engine holds only the tiers its applies read, and building one
  costs at most two panels on top of what the engine holds (the
  whole-shape build peaked at about six spectra).
"""

import tracemalloc

import numpy as np
import pytest

from repro.blas.permute import permute_launch
from repro.comm.grid import ProcessGrid
from repro.core import toeplitz
from repro.core.matvec import FFTMatvec
from repro.core.parallel import ParallelFFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.fft.plan import FFTPlan, FFTType
from repro.gpu.device import SimulatedDevice, price_launch
from repro.gpu.specs import MI300X
from repro.util.dtypes import Precision


def whole_shape_spectrum(blocks: np.ndarray) -> np.ndarray:
    """The unscaled spectrum built over the whole shape at once: pad,
    permute lag-contiguous, one batched rfft, permute frequency-major."""
    nt, nd, nm = blocks.shape
    padded = np.concatenate([blocks, np.zeros_like(blocks)])
    lag_inner = np.ascontiguousarray(padded.transpose(1, 2, 0))
    spec = np.fft.rfft(lag_inner.reshape(nd * nm, 2 * nt), axis=1)
    return np.ascontiguousarray(spec.reshape(nd, nm, nt + 1).transpose(2, 0, 1))


def bitwise(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture
def panel_columns(monkeypatch):
    """``panel_columns(w, nt, nd)`` makes the build cut Nm into panels of
    ``w`` columns at that (Nt, Nd); test shapes are one panel otherwise."""

    def force(width: int, nt: int, nd: int) -> None:
        monkeypatch.setattr(toeplitz, "_PANEL_BYTES", width * 2 * nt * nd * 8)

    return force


def matrix(nt, nd, nm, seed=0):
    return BlockTriangularToeplitz.random(nt, nd, nm, rng=np.random.default_rng(seed))


# Nm against a 4-column panel: inside one panel, a multiple of the width,
# a multiple plus one; Nt a power of two, even and odd.
SHAPES = [(nt, 3, nm) for nt in (8, 12, 33) for nm in (3, 8, 9)]


@pytest.mark.parametrize("nt,nd,nm", SHAPES)
def test_panels_are_bitwise_the_whole_shape_build(panel_columns, nt, nd, nm):
    a = matrix(nt, nd, nm)
    reference = whole_shape_spectrum(a.blocks)
    panel_columns(4, nt, nd)
    assert bitwise(a.spectrum(), reference)
    eng = FFTMatvec(a)
    assert bitwise(eng.spectrum(Precision.DOUBLE), reference * (1.0 / (2 * nt)))


@pytest.mark.parametrize("nt,nd,nm", SHAPES)
def test_the_single_tier_is_the_scaled_double_spectrum_cast(panel_columns, nt, nd, nm):
    a = matrix(nt, nd, nm)
    want = (whole_shape_spectrum(a.blocks) * (1.0 / (2 * nt))).astype(np.complex64)
    panel_columns(4, nt, nd)
    assert bitwise(a.spectrum(1.0 / (2 * nt), np.complex64), want)
    eng = FFTMatvec(a)
    assert bitwise(eng.spectrum(Precision.SINGLE), want)
    assert list(eng._fhat) == [Precision.SINGLE]  # the double tier was never built


def test_shipped_panel_width_is_bitwise_at_a_ragged_multi_panel_shape():
    # 64 columns a panel at (64, 16): four whole panels and one of 44.
    a = matrix(64, 16, 300)
    assert toeplitz._PANEL_BYTES // (2 * 64 * 16 * 8) == 64
    assert bitwise(a.spectrum(), whole_shape_spectrum(a.blocks))


def whole_shape_launches(nt, nd, nm, spec):
    """What the real code launches at setup: permute, D2Z, permute."""
    return [
        permute_launch((2 * nt, nd, nm), 8, spec),
        FFTPlan(n=2 * nt, batch=nd * nm, fft_type=FFTType.D2Z).launch(spec),
        permute_launch((nd, nm, nt + 1), 16, spec),
    ]


def booked(dev: SimulatedDevice):
    s = dev.stats
    return (s.launches, s.bytes_moved, s.kernel_seconds, dict(s.per_kernel), dev.clock.now)


@pytest.mark.parametrize("width", [1, 4, 1000])
def test_a_device_books_the_whole_shape_launches_once(panel_columns, width):
    nt, nd, nm = 12, 3, 9
    panel_columns(width, nt, nd)
    dev = SimulatedDevice(MI300X, record_launches=True)
    eng = FFTMatvec(matrix(nt, nd, nm), device=dev)
    want = whole_shape_launches(nt, nd, nm, MI300X)
    seconds = [price_launch(k, MI300X) for k in want]
    assert [(r.name, r.time, r.bytes_moved, r.blocks, r.phase) for r in dev.launch_log] == [
        (k.name, t, k.bytes_moved, k.blocks, "setup") for k, t in zip(want, seconds)
    ]
    assert eng.setup_time == dev.clock.phase_total("setup") == sum(seconds)
    assert dev.stats.launches == 3


def test_grid_ranks_book_whole_shape_launches_at_their_local_shape(panel_columns):
    a = matrix(12, 5, 9)
    panel_columns(1000, 12, 5)  # every rank one panel: the whole-shape build
    whole = ParallelFFTMatvec(a, ProcessGrid(2, 2), spec=MI300X)
    panel_columns(1, 12, 5)  # every rank one column a panel
    panels = ParallelFFTMatvec(a, ProcessGrid(2, 2), spec=MI300X)
    assert whole.grid.clock.now == panels.grid.clock.now > 0
    for rc, eng in panels.engines.items():
        assert booked(panels.devices[rc]) == booked(whole.devices[rc])
        assert bitwise(
            eng.spectrum(Precision.DOUBLE), whole.engines[rc].spectrum(Precision.DOUBLE)
        )
        nd, nm = eng.nd, eng.nm
        want = sum(price_launch(k, MI300X) for k in whole_shape_launches(12, nd, nm, MI300X))
        assert eng.setup_time == want


def traced_build_and_apply(a, config, k):
    """``(engine, peak, current)`` of tracemalloc over building an engine
    and one F and one F* apply at ``config`` on width-``k`` blocks (the
    inputs and outputs are allocated outside the trace)."""
    nt, nd, nm = a.nt, a.nd, a.nm
    M, D = np.ones((nt, nm, k)), np.ones((nt, nd, k))
    FM, FtD = np.empty((nt, nd, k)), np.empty((nt, nm, k))
    tracemalloc.start()
    try:
        eng = FFTMatvec(a)
        eng.matmat(M, config=config, out=FM)
        eng.rmatmat(D, config=config, out=FtD)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return eng, peak, current


def test_build_transient_is_at_most_two_panels():
    # 32 columns a panel (1 MiB) of an 8.5 MB spectrum.
    a = matrix(128, 16, 256)
    panel = toeplitz._PANEL_BYTES
    eng, peak, _ = traced_build_and_apply(a, "ddddd", 1)
    spectrum = eng.spectrum(Precision.DOUBLE).nbytes
    assert spectrum > 8 * panel
    assert list(eng._fhat) == [Precision.DOUBLE]
    held = spectrum + eng.workspace.nbytes
    assert peak <= held + 2 * panel, (peak - held) / panel


def test_a_single_engine_holds_no_double_spectrum():
    a = matrix(128, 16, 256)
    panel = toeplitz._PANEL_BYTES
    eng, peak, current = traced_build_and_apply(a, "dssdd", 3)
    assert list(eng._fhat) == [Precision.SINGLE]
    single = eng.spectrum(Precision.SINGLE)
    trans = eng.adjoint_spectrum(Precision.SINGLE)
    assert single.dtype == trans.dtype == np.complex64
    assert not np.shares_memory(single, trans) and not eng._fhat_conj
    # Both complex64 arrays and the arena are all that stays: a
    # complex128 spectrum (2 * single.nbytes) would not fit beside them.
    held = single.nbytes + trans.nbytes + eng.workspace.nbytes
    assert current <= held + panel, (current - held) / panel
    assert single.nbytes > 4 * panel
    assert peak <= held + 3 * panel, (peak - held) / panel
    # The Gram factor asks for the double tier: built then, and kept.
    kappa = eng.condition_number_hat()
    assert set(eng._fhat) == {Precision.SINGLE, Precision.DOUBLE}
    fresh = FFTMatvec(a)
    assert bitwise(eng.spectrum(Precision.DOUBLE), fresh.spectrum(Precision.DOUBLE))
    assert kappa == fresh.condition_number_hat()
