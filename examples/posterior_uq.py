#!/usr/bin/env python
"""Exact posterior uncertainty quantification from the data space.

Completes the Bayesian picture of the paper's application (Sections 2.2
and the UQ workflow of its references [21, 22]): after the MAP point,
quantify uncertainty from one assembly of the data-space Hessian
H_d = F Gp F* / sigma^2 and its Cholesky factor.  The assembly reads H_d
from the p2o kernel by time-shift invariance, with no F/F* action; the
mixed-precision configuration applies to the sampler, whose every draw
runs one F and one F* FFTMatvec.  With Nt*Nd = 160 data the factor is
exact and cheap; no low-rank truncation is needed.

Run:  python examples/posterior_uq.py
"""

import numpy as np

from repro.inverse import (
    DataSpacePosterior,
    GaussianPrior,
    Grid1D,
    HeatEquation1D,
    LinearBayesianProblem,
    ObservationOperator,
    P2OMap,
)

rng = np.random.default_rng(21)

# Heat-source inversion with 4 sensors on 32 grid points, 40 steps.
grid = Grid1D(32)
system = HeatEquation1D(grid, dt=0.02, kappa=0.1)
nt = 40
sensor_idx = [grid.nearest_index(x) for x in (0.2, 0.4, 0.6, 0.8)]
obs = ObservationOperator(grid.n, sensor_idx)
p2o = P2OMap(system, obs, nt)
prior = GaussianPrior(grid.n, nt, gamma=3e-3, delta=6.0)
problem = LinearBayesianProblem(p2o, prior, noise_std=0.01)

print(f"problem: Nt={nt}, Nd={obs.nd}, Nm={grid.n} "
      f"({nt * grid.n} unknowns, {nt * obs.nd} data)")

# --- exact posterior from one kernel assembly ------------------------------
post = DataSpacePosterior.compute(problem, config="dssdd")
lam = post.eigenvalues
print(f"\none assembly, {p2o.engine.matvec_count} FFT matvecs, "
      f"{len(lam)}x{len(lam)} Cholesky factor")
print(f"  leading eigenvalues: {np.array2string(lam[:5], precision=1)}")
print(f"  eigenvalue decay lam_1/lam_30: {lam[0] / max(lam[29], 1e-30):.1e}")
print(f"  expected information gain: {post.information_gain():.2f} nats")

# --- where did the data reduce uncertainty? --------------------------------
prior_var = prior.variance_diag()
post_var = post.pointwise_variance()
reduction = (1.0 - post_var / prior_var).mean(axis=0)  # avg over time

print("\nvariance reduction along the domain (sensors marked *):")
bar_width = 40
for i in range(0, grid.n, 2):
    mark = "*" if i in sensor_idx or i + 1 in sensor_idx else " "
    bar = "#" * int(bar_width * reduction[i])
    print(f"  x={grid.points[i]:.2f} {mark} |{bar:<{bar_width}}| "
          f"{reduction[i] * 100:5.1f}%")

# --- posterior samples vs prior samples -------------------------------------
s_rng = np.random.default_rng(5)
prior_spread = np.std([prior.sample(s_rng) for _ in range(50)])
post_spread = np.std([post.sample(s_rng) for _ in range(50)])
print(f"\nsample std: prior {prior_spread:.3f} -> posterior {post_spread:.3f} "
      f"({p2o.engine.matvec_count} FFT matvecs at {post.config}, two a draw)")
print("the data shrink uncertainty exactly in the observed directions.")
