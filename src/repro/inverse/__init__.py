"""Bayesian inverse-problem substrate (the paper's application context).

The block-triangular Toeplitz structure arises as the discrete
parameter-to-observable (p2o) map of a linear time-invariant dynamical
system (paper Section 2).  This package builds that context end-to-end
at laptop scale:

* :mod:`repro.inverse.mesh` — 1-D/2-D structured grids.
* :mod:`repro.inverse.lti` — LTI PDE solvers (heat / advection-
  diffusion) with implicit time stepping (scipy sparse).
* :mod:`repro.inverse.observation` — sensor observation operators B.
* :mod:`repro.inverse.p2o` — builds the p2o map's first block column
  from impulse responses and hands it to FFTMatvec; verifies the
  time-invariance ⇒ block-Toeplitz property.
* :mod:`repro.inverse.prior` — Gaussian (Laplacian-smoothness) priors.
* :mod:`repro.inverse.cg` — matrix-free conjugate gradient.
* :mod:`repro.inverse.bayes` — the linear Bayesian inverse problem:
  MAP point via CG on the Hessian (F* Γn⁻¹ F + Γpr⁻¹), using FFTMatvec
  actions in a configurable precision.
* :mod:`repro.inverse.oed` — the "outer-loop" problem of Remark 1:
  greedy optimal sensor placement maximizing expected information gain
  (KL divergence), scored from one assembly of the data-space Hessian,
  read from the p2o kernel by time-shift invariance with no F/F*
  action.
* :mod:`repro.inverse.posterior` — the exact posterior (EIG, pointwise
  variance, samples) from the same assembly and its Cholesky factor;
  only its sampler runs F and F*.
"""

from repro.inverse.mesh import Grid1D
from repro.inverse.lti import HeatEquation1D, AdvectionDiffusion1D, LTISystem
from repro.inverse.observation import ObservationOperator
from repro.inverse.p2o import P2OMap, build_p2o_blocks
from repro.inverse.prior import GaussianPrior
from repro.inverse.cg import (
    conjugate_gradient,
    CGResult,
    block_conjugate_gradient,
    BlockCGResult,
)
from repro.inverse.bayes import LinearBayesianProblem, MAPResult
from repro.inverse.oed import greedy_sensor_placement, expected_information_gain
from repro.inverse.posterior import DataSpacePosterior

__all__ = [
    "Grid1D",
    "HeatEquation1D",
    "AdvectionDiffusion1D",
    "LTISystem",
    "ObservationOperator",
    "P2OMap",
    "build_p2o_blocks",
    "GaussianPrior",
    "conjugate_gradient",
    "CGResult",
    "block_conjugate_gradient",
    "BlockCGResult",
    "LinearBayesianProblem",
    "MAPResult",
    "greedy_sensor_placement",
    "expected_information_gain",
    "DataSpacePosterior",
]
