"""repro — a Python reproduction of the FFTMatvec system.

Reproduces "Mixed-Precision Performance Portability of FFT-Based
GPU-Accelerated Algorithms for Block-Triangular Toeplitz Matrices"
(SC Workshops '25): the five-phase FFT-based matvec for block
lower-triangular Toeplitz matrices, its dynamic mixed-precision
framework and Pareto analysis, the hipify-on-the-fly portability
workflow, the optimized rocBLAS transpose SBGEMV kernel, and the
multi-GPU scaling study — all on simulated GPU / network substrates
(see DESIGN.md for the substitution table).

Quickstart
----------
>>> import numpy as np
>>> from repro import BlockTriangularToeplitz, FFTMatvec
>>> F = BlockTriangularToeplitz.random(nt=32, nd=4, nm=16,
...                                    rng=np.random.default_rng(0))
>>> engine = FFTMatvec(F)
>>> m = np.random.default_rng(1).standard_normal((32, 16))
>>> d = engine.matvec(m, config="dssdd")           # mixed precision
>>> ref = F.matvec_reference(m)                    # O(Nt^2) check
>>> bool(np.linalg.norm(d - ref) / np.linalg.norm(ref) < 1e-4)
True
"""

from repro.core import (
    BlockTriangularToeplitz,
    FFTMatvec,
    ParallelFFTMatvec,
    PrecisionConfig,
    pareto_front,
    optimal_config,
    sweep_configs,
)
from repro.gpu import SimulatedDevice, get_gpu
from repro.util import Precision

__version__ = "1.0.0"

__all__ = [
    "BlockTriangularToeplitz",
    "FFTMatvec",
    "ParallelFFTMatvec",
    "PrecisionConfig",
    "Precision",
    "pareto_front",
    "optimal_config",
    "sweep_configs",
    "SimulatedDevice",
    "get_gpu",
    "__version__",
]
