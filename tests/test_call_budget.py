"""Perf guard that cannot flake: Python-level calls per warm apply.

A k = 1 apply of the (64, 24, 96) engine is ~185 us of numpy kernels;
what the interpreter adds on top is proportional to the number of
Python-level calls the apply makes, and that number — unlike a wall
clock — is the same on every run of every machine.  Before the prepared
apply (``FFTMatvec._prepared``) a warm ``matvec`` made 325 of them (353
when the config arrives as a string); it now makes under a hundred.  The
bound leaves room for a numpy or scipy release that adds a dispatcher
hop, not for per-apply bookkeeping to grow back.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.comm.grid import ProcessGrid
from repro.core.elastic import ElasticEngine
from repro.core.matvec import FFTMatvec
from repro.core.parallel import ParallelFFTMatvec
from repro.gpu.device import SimulatedDevice

SHAPE = (64, 24, 96)  # the solve_small operator
VECTOR_BUDGET = 130  # before: 316-376, now 81-95
BLOCK_BUDGET = 140  # k = 8 matmat / rmatmat, before: 330-387, now 98-115
# With a simulated device an apply books six launches off its prepared
# record and reads the clock's phase totals for ``last_timing``; it used
# to rebuild every launch's memo key and problem per call (274 / 292 and
# 299 / 321) and to loop the deterministic panel a GEMV at a time (891 /
# 1107).  Now 171 / 173, 188 / 193, 282 / 286.
DEVICE_VECTOR_BUDGET = 200
DEVICE_BLOCK_BUDGET = 220
DEVICE_DETERMINISTIC_BUDGET = 320
# k = 16 in chunks of 4 across four ranks (inline at this size: a
# rank-chunk is 15 360 elements).  The chunk loop runs through the shared
# schedule driver; these keep its callbacks from costing the grid
# workloads interpreter time (2922 / 9733 before the driver, 2912 / 9729
# with it).
GRID_BUDGET = 3100  # now 2687
SPEC_GRID_BUDGET = 4400  # a device per rank: 5841 before the ranks booked from records, now 4065
ELASTIC_BUDGET = 10_300  # now 9549


def calls_per_apply(apply, *args, reps: int = 5, **kwargs) -> float:
    """``call`` + ``c_call`` profile events per ``apply(*args, **kwargs)``."""
    events = [0]

    def count(frame, event, arg):
        if event in ("call", "c_call"):
            events[0] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        for _ in range(reps):
            apply(*args, **kwargs)
    finally:
        sys.setprofile(previous)
    return (events[0] - 1) / reps  # minus the closing setprofile() itself


def _warm(device):
    rng = np.random.default_rng(20261004)
    nt, nd, nm = SHAPE
    eng = FFTMatvec(rng.standard_normal(SHAPE), device=device, workspace=True, backend="numpy")
    vectors = {
        "matvec": rng.standard_normal((nt, nm)),
        "rmatvec": rng.standard_normal((nt, nd)),
        "matmat": rng.standard_normal((nt, nm, 8)),
        "rmatmat": rng.standard_normal((nt, nd, 8)),
    }
    for config in ("ddddd", "dssdd"):
        for name, v in vectors.items():
            for _ in range(2):
                getattr(eng, name)(v, config=config)
    return eng, vectors


@pytest.fixture(scope="module")
def warm():
    return _warm(None)


@pytest.fixture(scope="module")
def warm_device():
    return _warm(SimulatedDevice("MI300X"))


@pytest.mark.parametrize("config", ["ddddd", "dssdd"])
@pytest.mark.parametrize("name", ["matvec", "rmatvec", "matmat", "rmatmat"])
def test_warm_apply_stays_within_its_call_budget(warm, name, config):
    eng, vectors = warm
    assert eng.device is None and eng.workspace is not None
    allocs = eng.workspace.alloc_count
    n = calls_per_apply(getattr(eng, name), vectors[name], config=config)
    assert n <= (BLOCK_BUDGET if name.endswith("mat") else VECTOR_BUDGET), n
    assert eng.workspace.alloc_count == allocs  # warm: nothing was prepared


@pytest.mark.parametrize("config", ["ddddd", "dssdd"])
@pytest.mark.parametrize(
    "name,deterministic,budget",
    [
        ("matvec", False, DEVICE_VECTOR_BUDGET),
        ("rmatvec", False, DEVICE_VECTOR_BUDGET),
        ("matmat", False, DEVICE_BLOCK_BUDGET),
        ("rmatmat", False, DEVICE_BLOCK_BUDGET),
        ("matmat", True, DEVICE_DETERMINISTIC_BUDGET),
        ("rmatmat", True, DEVICE_DETERMINISTIC_BUDGET),
    ],
)
def test_warm_apply_with_a_device_stays_within_its_call_budget(
    warm_device, name, deterministic, budget, config
):
    eng, vectors = warm_device
    kwargs = {"deterministic": True} if deterministic else {}
    getattr(eng, name)(vectors[name], config=config, **kwargs)  # the panel's record
    n = calls_per_apply(getattr(eng, name), vectors[name], config=config, **kwargs)
    assert n <= budget, n


def test_the_count_sees_per_apply_bookkeeping():
    """The guard has teeth: an engine that prepares every half of every
    apply anew (a one-record cache) is over the budget."""
    rng = np.random.default_rng(20261005)
    eng = FFTMatvec(rng.standard_normal((16, 4, 6)), workspace=True, backend="numpy")
    eng.plan_cache_size = 1
    m = rng.standard_normal((16, 6))
    eng.matvec(m)
    assert calls_per_apply(eng.matvec, m) > VECTOR_BUDGET


@pytest.mark.parametrize(
    "build,budget",
    [
        pytest.param(
            lambda blocks: ParallelFFTMatvec(
                blocks, ProcessGrid(2, 2), workspace=True, max_block_k=4, backend="numpy"
            ),
            GRID_BUDGET,
            id="grid-2x2",
        ),
        pytest.param(
            lambda blocks: ParallelFFTMatvec(
                blocks, ProcessGrid(2, 2), spec="MI300X", workspace=True, max_block_k=4,
                backend="numpy",
            ),
            SPEC_GRID_BUDGET,
            id="grid-2x2-devices",
        ),
        pytest.param(
            lambda blocks: ElasticEngine(
                blocks, 4, workspace=True, max_block_k=4, validate="abft", backend="numpy"
            ),
            ELASTIC_BUDGET,
            id="elastic-abft",
        ),
    ],
)
def test_warm_grid_apply_stays_within_its_call_budget(build, budget):
    rng = np.random.default_rng(20261004)
    nt, nd, nm = SHAPE
    eng = build(rng.standard_normal(SHAPE))
    M = rng.standard_normal((nt, nm, 16))
    for _ in range(2):
        eng.matmat(M)
    n = calls_per_apply(eng.matmat, M)
    assert n <= budget, n
