"""A vector apply is the width-1 block apply, on every engine.

``FFTMatvec.matvec`` / ``rmatvec`` run the blocked pipeline on the
``(Nt, nx, 1)`` view of their input; the grid engine's vector apply is
one width-1 chunk on the serial schedule, and the elastic engine's is
the width-1 block through its chunk loop.  The contract, on fast and
pairwise engines — one device, a 2x2 grid with balanced, skewed and
width-1 parts, and the elastic engine — with and without a simulated
device, across precision tiers:

* the result is bitwise column 0 of a width-1 ``matmat`` / ``rmatmat``,
  and bitwise the same column inside a k = 5 ``deterministic=True``
  block;
* a vector apply advances ``matvec_count`` by one and leaves
  ``matmat_count`` alone (the elastic engine, which keeps no such
  counters, commits one chunk per apply); its ``last_timing`` charges
  exactly what the width-1 block charges, ``==`` phase by phase;
* the result owns its data, or is the caller's ``out``.
"""

import numpy as np
import pytest

from repro.comm.grid import ProcessGrid
from repro.core.elastic import ElasticEngine
from repro.core.matvec import FFTMatvec
from repro.core.parallel import ParallelFFTMatvec
from repro.core.precision import PrecisionConfig
from repro.gpu.device import SimulatedDevice

NT, ND, NM, K, COL = 12, 5, 7, 5, 2
CONFIGS = ["ddddd", "ddsdd", "dssdd", "sssss"]

# 2x2 grid partitions of the (ND, NM) = (5, 7) operator.
PARTS = {
    "balanced": (None, None),
    "skewed": ([(0, 4), (4, 5)], [(0, 2), (2, 7)]),
    "width1": ([(0, 1), (1, 5)], [(0, 6), (6, 7)]),
}
# (engine, device) cells: the elastic engine carries no device.
ENGINES = [
    ("single", False), ("single", True),
    *[(f"grid-{part}", dev) for part in PARTS for dev in (False, True)],
    ("elastic", False),
]


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(4040)
    return {
        "blocks": rng.standard_normal((NT, ND, NM)),
        False: rng.standard_normal((NT, NM, K)),  # F's input block
        True: rng.standard_normal((NT, ND, K)),  # F*'s
    }


def _engine(blocks, kind: str, reduction: str, device: bool):
    if kind == "single":
        dev = SimulatedDevice("MI300X") if device else None
        return FFTMatvec(blocks, device=dev, reduction=reduction)
    if kind == "elastic":
        return ElasticEngine(blocks, 4, reduction=reduction)
    rows, cols = PARTS[kind.split("-")[1]]
    return ParallelFFTMatvec(
        blocks, ProcessGrid(2, 2), spec="MI300X" if device else None,
        reduction=reduction, row_ranges=rows, col_ranges=cols,
    )


def _counts(eng):
    """(logical actions, blocked passes); the elastic engine's committed
    chunks (a vector apply commits one)."""
    if isinstance(eng, ElasticEngine):
        return eng.report.chunks_applied
    return eng.matvec_count, eng.matmat_count


@pytest.mark.parametrize("adjoint", [False, True], ids=["F", "Fstar"])
@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize(
    "kind,device", ENGINES, ids=[f"{k}-dev={'on' if d else 'off'}" for k, d in ENGINES]
)
@pytest.mark.parametrize("reduction", ["fast", "pairwise"])
def test_vector_apply_is_the_width_one_block(
    operands, reduction, kind, device, config, adjoint
):
    eng = _engine(operands["blocks"], kind, reduction, device)
    elastic, single = kind == "elastic", kind == "single"
    vector = eng.rmatvec if adjoint else eng.matvec
    block = eng.rmatmat if adjoint else eng.matmat
    V = operands[adjoint]
    v = np.ascontiguousarray(V[:, :, COL])
    cfg = str(PrecisionConfig.parse(config))

    y = vector(v, config)
    assert _counts(eng) == (1 if elastic else (1, 0))
    assert y.flags.owndata and y.dtype == np.float64
    assert y.shape == (NT, NM if adjoint else ND)
    # A grid clock charges its collectives with or without rank devices.
    vec_timing = None if elastic else eng.last_timing
    assert (vec_timing is None) == (elastic or single and not device)
    if device and single:
        assert vec_timing.label == cfg

    Y1 = block(v[:, :, None], config)
    assert _counts(eng) == (2 if elastic else (2, 1))
    np.testing.assert_array_equal(y, Y1[:, :, 0])
    if device and single:
        assert eng.last_timing.label == f"{cfg}[k=1]"
    if vec_timing is not None:
        # One tally per apply: the same charges sum to the same bits,
        # and a grid's schedule is timed from zero, so its wall too.
        assert eng.last_timing.phases == vec_timing.phases
        assert eng.last_timing.wall == vec_timing.wall

    YK = block(V, config, deterministic=True)
    assert _counts(eng) == (3 if elastic else (2 + K, 2))
    np.testing.assert_array_equal(y, YK[:, :, COL])
    if device and single:
        assert eng.last_timing.label == f"{cfg}[k={K}, det]"

    if single:
        out = np.full_like(y, np.nan)
        assert vector(v, config, out=out) is out
        np.testing.assert_array_equal(out, y)
        assert _counts(eng) == (3 + K, 2)
