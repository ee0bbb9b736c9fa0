"""A vector apply is the width-1 block apply.

``FFTMatvec.matvec`` / ``rmatvec`` run the blocked pipeline on the
``(Nt, nx, 1)`` view of their input.  The contract, on fast and pairwise
engines, with and without a simulated device, across precision tiers:

* the result is bitwise column 0 of a width-1 ``matmat`` / ``rmatmat``,
  and bitwise the same column inside a k = 5 ``deterministic=True``
  block;
* a vector apply advances ``matvec_count`` by one and leaves
  ``matmat_count`` alone; its ``last_timing`` is labelled with the bare
  config and charges what the width-1 block charges;
* the result owns its data, or is the caller's ``out``.
"""

import numpy as np
import pytest

from repro.core.matvec import FFTMatvec
from repro.core.precision import PrecisionConfig
from repro.gpu.device import SimulatedDevice

NT, ND, NM, K, COL = 12, 5, 7, 5, 2
CONFIGS = ["ddddd", "ddsdd", "dssdd", "sssss"]


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(4040)
    return {
        "blocks": rng.standard_normal((NT, ND, NM)),
        False: rng.standard_normal((NT, NM, K)),  # F's input block
        True: rng.standard_normal((NT, ND, K)),  # F*'s
    }


def _engine(blocks, reduction: str, device: bool) -> FFTMatvec:
    dev = SimulatedDevice("MI300X") if device else None
    return FFTMatvec(blocks, device=dev, reduction=reduction)


@pytest.mark.parametrize("adjoint", [False, True], ids=["F", "Fstar"])
@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("device", [False, True], ids=["dev=off", "dev=on"])
@pytest.mark.parametrize("reduction", ["fast", "pairwise"])
def test_vector_apply_is_the_width_one_block(operands, reduction, device, config, adjoint):
    eng = _engine(operands["blocks"], reduction, device)
    vector = eng.rmatvec if adjoint else eng.matvec
    block = eng.rmatmat if adjoint else eng.matmat
    V = operands[adjoint]
    v = np.ascontiguousarray(V[:, :, COL])
    cfg = str(PrecisionConfig.parse(config))

    y = vector(v, config)
    assert (eng.matvec_count, eng.matmat_count) == (1, 0)
    assert y.flags.owndata and y.dtype == np.float64
    assert y.shape == (NT, NM if adjoint else ND)
    vec_timing = eng.last_timing
    assert (vec_timing is None) == (not device)
    if device:
        assert vec_timing.label == cfg

    Y1 = block(v[:, :, None], config)
    assert (eng.matvec_count, eng.matmat_count) == (2, 1)
    np.testing.assert_array_equal(y, Y1[:, :, 0])
    if device:
        assert eng.last_timing.label == f"{cfg}[k=1]"
        # Deltas of the running clock totals: equal up to their rounding.
        assert eng.last_timing.phases == pytest.approx(vec_timing.phases, rel=1e-12)

    YK = block(V, config, deterministic=True)
    assert (eng.matvec_count, eng.matmat_count) == (2 + K, 2)
    np.testing.assert_array_equal(y, YK[:, :, COL])
    if device:
        assert eng.last_timing.label == f"{cfg}[k={K}, det]"

    out = np.full_like(y, np.nan)
    assert vector(v, config, out=out) is out
    np.testing.assert_array_equal(out, y)
    assert (eng.matvec_count, eng.matmat_count) == (3 + K, 2)
