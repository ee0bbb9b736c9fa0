"""Benchmark-suite configuration.

Every ``test_fig*`` bench regenerates one paper table/figure: it prints
the figure's rows (model/measured vs paper) and uses pytest-benchmark to
time the *numeric* workload that underlies it.  ``pyproject.toml`` runs
each benchmarked function once (``--benchmark-disable``); `pytest
benchmarks/ --benchmark-enable --benchmark-only` times the rounds and
emits the reproduction tables.
"""

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
