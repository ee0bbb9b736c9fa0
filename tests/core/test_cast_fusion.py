"""Fusion oracle: tier changes ride the pad and the reorders, bit for bit.

``FFTMatvec._front``/``_back`` no longer run standalone copy-with-cast
passes between phases (one exception: a single-precision pad feeding a
double FFT).  The oracle here is the pipeline spelled out the old way
from the public layer functions — every memory pass at the lower
adjacent tier, every tier change its own ``astype`` —

    pad_to_soti(pad tier) -> astype -> FFTPlan.execute -> soti_to_tosi(min)
      -> astype -> Phase-3 kernel -> tosi_to_soti(min) -> astype
      -> FFTPlan.inverse -> unpad_from_soti

and the engine must equal it bitwise for all 32 configs, vector and
block, F and F*, arena on and off — and, on a device, charge exactly
what that composition charges (the sim clock prices each pass at its
configured tier, not at the tier of the fused destination buffer).
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.blas.types import Operation
from repro.core.matvec import FFTMatvec
from repro.core.phases import pad_to_soti, unpad_from_soti
from repro.core.precision import PrecisionConfig
from repro.core.reorder import soti_to_tosi, tosi_to_soti
from repro.fft.plan import FFTPlan, FFTType
from repro.gpu.device import SimulatedDevice
from repro.util.dtypes import complex_dtype, real_dtype
from repro.util.workspace import Workspace, apply_scope

NT, ND, NM, K = 12, 5, 7, 3  # non-power-of-two Nt
CONFIGS = [str(c) for c in PrecisionConfig.all_configs()]
PHASES = ("pad", "fft", "sbgemv", "ifft", "unpad")


class RecordingWorkspace(Workspace):
    """An arena that remembers every tag it was asked for."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.tags = set()

    def checkout_fresh(self, tag, shape, dtype):
        self.tags.add(tag)
        return super().checkout_fresh(tag, shape, dtype)


def build(blocks, workspace: bool, device: bool) -> FFTMatvec:
    dev = SimulatedDevice("MI300X") if device else None
    ws = None
    if workspace:
        ws = RecordingWorkspace(allocator=dev.allocator if dev else None)
    return FFTMatvec(blocks, device=dev, workspace=ws, backend="numpy")


def unfused_apply(ref: FFTMatvec, v_in: np.ndarray, config: str, adjoint: bool):
    """One apply as separate passes, on ``ref``'s spectrum, kernels,
    arena and device (``ref``'s own pipeline is never run)."""
    cfg = PrecisionConfig.parse(config)
    dev, ws = ref.device, ref.workspace
    op = Operation.C if adjoint else Operation.N
    vector = v_in.ndim == 2
    block = v_in[:, :, None] if vector else v_in
    nt, nx, k = block.shape
    ny = ref.nm if adjoint else ref.nd
    kernel = ref._run_sbgemv_column if vector else ref._run_sbgemm

    def phase(name):
        return dev.clock.phase(name) if dev is not None else contextlib.nullcontext()

    def plan(fft_type, batch):
        return FFTPlan(ref.n_pad, batch, fft_type, device=dev)

    with apply_scope(ws):
        with phase("pad"):
            x = pad_to_soti(block.reshape(nt, nx * k), cfg.pad, device=dev, workspace=ws)
        with phase("fft"):
            x = x.astype(real_dtype(cfg.fft))
            xhat = plan(FFTType.real_forward(cfg.fft), nx * k).execute(x, workspace=ws)
        with phase("sbgemv"):
            vhat = soti_to_tosi(
                xhat, precision=cfg.reorder_precision("fft", "sbgemv"), device=dev,
                phase="sbgemv", workspace=ws, tag="oracle_fwd_reorder",
            ).astype(complex_dtype(cfg.sbgemv))
            yhat = kernel(vhat.reshape(ref.n_freq, nx, k), op, cfg.sbgemv)
            yhat = tosi_to_soti(
                yhat.reshape(ref.n_freq, ny * k),
                precision=cfg.reorder_precision("sbgemv", "ifft"), device=dev,
                phase="sbgemv", workspace=ws, tag="oracle_bwd_reorder",
            )
        with phase("ifft"):
            yhat = yhat.astype(complex_dtype(cfg.ifft))
            y = plan(FFTType.real_inverse(cfg.ifft), ny * k).inverse(yhat, workspace=ws)
        with phase("unpad"):
            res = unpad_from_soti(y, nt, cfg.unpad, device=dev)
    res = res.astype(np.float64).reshape(nt, ny, k)
    return res[:, :, 0] if vector else res


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(20250930)
    return {
        "blocks": rng.standard_normal((NT, ND, NM)),
        "matvec": rng.standard_normal((NT, NM)),
        "rmatvec": rng.standard_normal((NT, ND)),
        "matmat": rng.standard_normal((NT, NM, K)),
        "rmatmat": rng.standard_normal((NT, ND, K)),
    }


@pytest.fixture(
    scope="module",
    params=[(w, d) for w in (False, True) for d in (False, True)],
    ids=lambda p: f"ws={'on' if p[0] else 'off'}-dev={'on' if p[1] else 'off'}",
)
def engines(request, problem):
    workspace, device = request.param
    return (
        build(problem["blocks"], workspace, device),
        build(problem["blocks"], workspace, device),
    )


@pytest.mark.parametrize("method", ["matvec", "rmatvec", "matmat", "rmatmat"])
@pytest.mark.parametrize("config", CONFIGS)
def test_engine_is_the_unfused_composition(engines, problem, config, method):
    eng, ref = engines
    v = problem[method]
    noops = eng.cast_noop_count
    got = getattr(eng, method)(v, config=config)
    if ref.device is not None:
        before = {p: ref.device.clock.phase_total(p) for p in PHASES}
    want = unfused_apply(ref, v, config, adjoint=method.startswith("r"))
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got, want)

    # Boundaries crossed without a standalone pass: all three, except
    # that a single pad must round before a double FFT reads it.
    standalone = config.startswith("sd")
    assert eng.cast_noop_count - noops == (2 if standalone else 3)

    if ref.device is not None:
        # Modeled time is the unfused composition's, phase by phase.
        for p in PHASES:
            charged = ref.device.clock.phase_total(p) - before[p]
            assert eng.last_timing.phase(p) == pytest.approx(charged, rel=1e-12, abs=0.0)
            assert charged > 0.0


def test_arena_never_holds_a_reorder_cast_buffer(problem):
    eng = build(problem["blocks"], workspace=True, device=True)
    for config in CONFIGS:
        eng.workspace.tags.clear()
        for method in ("matvec", "rmatvec", "matmat", "rmatmat"):
            getattr(eng, method)(problem[method], config=config)
        casts = {t for t in eng.workspace.tags if t.startswith("cast")}
        assert casts == ({"cast_fft"} if config.startswith("sd") else set()), config
    # ... which the device allocator's registrations agree with.
    tags = {a.tag.split("/", 1)[1] for a in eng.device.allocator.live_allocations()}
    assert {"pad", "fwd_reorder", "bwd_reorder", "cast_fft"} <= tags
    assert not {"cast_sbgemv", "cast_ifft"} & tags
