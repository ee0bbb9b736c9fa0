#!/usr/bin/env python
"""The paper's Pareto-front analysis (Section 3.2 / Figure 3): sweep all
32 mixed-precision configurations, measure (time, error) for each, and
select the optimum under a relative error tolerance — the paper's 1e-7,
and single precision's unit roundoff 2^-23 ~ 1.19e-7.  At this reduced
size the published F optimum ``dssdd`` measures right at 1e-7 (0.97e-7
to 1.14e-7 depending on the random operator), so the 1e-7 selection can
land one step up the front; at 2^-23 it is ``dssdd`` every time.

Run:  python examples/pareto_analysis.py
"""

import numpy as np

from repro import BlockTriangularToeplitz, FFTMatvec, SimulatedDevice
from repro.core.pareto import optimal_config, pareto_front, pareto_table, sweep_configs
from repro.gpu.specs import MI300X
from repro.perf.phase_model import modeled_timing

rng = np.random.default_rng(3)
matrix = BlockTriangularToeplitz.random(nt=48, nd=6, nm=64, rng=rng, decay=0.08)
engine = FFTMatvec(matrix, device=SimulatedDevice("MI300X"))

# Errors are measured numerically on this engine; times come from the
# phase model at the paper's size (Nm=5000, Nd=100, Nt=1000) so the
# selection sees the paper's phase weights (SBGEMV ~92% of runtime).
print("sweeping all 32 precision configurations (F matvec, MI300X model)...\n")
points = sweep_configs(
    engine,
    rng=rng,
    time_model=lambda cfg: modeled_timing(5000, 100, 1000, cfg, MI300X).total,
)

TOL = 1e-7
print(pareto_table(points, tolerance=TOL))

front = pareto_front(points)
print(f"\nPareto front ({len(front)} configurations):")
for p in front:
    print(f"  {p.config}  time={p.time * 1e3:8.4f} ms  err={p.error:.2e}")

for tol in (TOL, float(np.finfo(np.float32).eps)):
    best = optimal_config(points, tol)
    print(f"\noptimal under tolerance {tol:.3g}: {best.config} "
          f"({(best.speedup - 1) * 100:.0f}% speedup, err {best.error:.2e})")
published = next(p for p in points if str(p.config) == "dssdd")
print(f"paper's published optimum for the F matvec: dssdd "
      f"(err {published.error:.2e} here — on the 1e-7 boundary at this size)")

# The adjoint direction: the paper reports SBGEMV+IFFT single (ddssd).
print("\nsweeping the F* direction...")
adj_points = sweep_configs(
    engine,
    adjoint=True,
    rng=rng,
    time_model=lambda cfg: modeled_timing(
        5000, 100, 1000, cfg, MI300X, adjoint=True
    ).total,
)
best_adj = optimal_config(adj_points, TOL)
print(f"optimal F* config: {best_adj.config} "
      f"({(best_adj.speedup - 1) * 100:.0f}% speedup, err {best_adj.error:.2e})")
print("paper's published optimum for the F* matvec: ddssd")
