#!/usr/bin/env python
"""Optimal sensor placement — the "outer-loop" problem of the paper's
Remark 1: greedily choose sensor locations maximizing expected
information gain (KL divergence prior→posterior).

A sensor set's data-space Hessian is a principal submatrix of the
Hessian over all candidates, so the loop assembles that one Hessian and
scores every candidate by a Cholesky (Schur-complement) update.  The
p2o map is time-invariant and the prior acts identically at every time
step, so the assembly reads the Hessian from the p2o kernel by
time-shift invariance: no F/F* action runs, where Remark 1 counts
thousands per placement decision.

Run:  python examples/sensor_placement.py
"""

import numpy as np

from repro.inverse import (
    AdvectionDiffusion1D,
    GaussianPrior,
    Grid1D,
    LinearBayesianProblem,
    ObservationOperator,
    P2OMap,
)
from repro.inverse.oed import expected_information_gain, greedy_sensor_placement

# Contaminant transport: advection-diffusion with rightward flow.
grid = Grid1D(32)
system = AdvectionDiffusion1D(grid, dt=0.02, kappa=0.02, velocity=0.8)
nt = 24
prior = GaussianPrior(grid.n, nt, gamma=2e-3, delta=6.0)
noise_std = 0.02

# Candidate sensor sites spread over the domain.
candidates = [2, 6, 10, 14, 18, 22, 26, 30]
print(f"greedy OED: choose 3 of {len(candidates)} candidate sites "
      f"(Nm={grid.n}, Nt={nt})\n")

result = greedy_sensor_placement(
    system,
    candidates,
    n_select=3,
    nt=nt,
    prior=prior,
    noise_std=noise_std,
)
sites = [round(float(grid.points[i]), 3) for i in result.selected]
print(f"selected sites x = {sites} (indices {result.selected})")
print(f"EIG after each pick: {[round(g, 4) for g in result.gains]}")
print(f"candidate evaluations: {result.evaluations}\n")

# The chosen set's Hessian, assembled on its own, gives the same EIG.
obs = ObservationOperator(grid.n, result.selected)
alone = LinearBayesianProblem(P2OMap(system, obs, nt), prior, noise_std)
eig = expected_information_gain(alone.data_space_hessian())
print(f"EIG of the chosen set, re-assembled on its own: {eig:.4f} "
      f"(greedy: {result.gains[-1]:.4f})\n")

print("Every decision reads one Hessian assembled from the p2o kernel,")
print("with no F/F* action: the mixed-precision matvec pays online, in the")
print("MAP solves and the posterior sampler, not in this loop.")
print("With flow to the right, informative sensors sit downstream of the")
print("prior mass — exactly what the greedy picks show.")
