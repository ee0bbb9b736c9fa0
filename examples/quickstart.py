#!/usr/bin/env python
"""Quickstart: build a block-triangular Toeplitz matrix, run F and F*
matvecs in mixed precision on a simulated MI300X, inspect timings, and
see what a skewed process-grid partition costs.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import BlockTriangularToeplitz, FFTMatvec, SimulatedDevice

rng = np.random.default_rng(42)

# A modest problem: 64 time steps, 6 sensors, 80 spatial parameters.
# Only the first block column (64 blocks of 6x80) is ever stored.
matrix = BlockTriangularToeplitz.random(nt=64, nd=6, nm=80, rng=rng, decay=0.03)
print(matrix)
print(f"  stored:        {matrix.storage_bytes / 1e3:.1f} kB (first block column)")
print(f"  dense would be {matrix.dense_bytes / 1e6:.1f} MB")

# Attach a simulated GPU to get modeled per-phase timings.
engine = FFTMatvec(matrix, device=SimulatedDevice("MI300X"))

m = rng.standard_normal((matrix.nt, matrix.nm))

# Baseline double-precision matvec, validated against the O(Nt^2) reference.
d = engine.matvec(m, config="ddddd")
ref = matrix.matvec_reference(m)
print(f"\nF matvec vs dense reference: rel err = "
      f"{np.linalg.norm(d - ref) / np.linalg.norm(ref):.2e}")
print("\n".join(engine.last_timing.lines()))

# The paper's optimal mixed configuration: FFT + SBGEMV in single.
d_mixed = engine.matvec(m, config="dssdd")
err = np.linalg.norm(d_mixed - d) / np.linalg.norm(d)
print(f"\nmixed 'dssdd' vs double: rel err = {err:.2e}")
print("\n".join(engine.last_timing.lines()))

# Adjoint matvec + the <Fm, d> == <m, F*d> consistency check.
dv = rng.standard_normal((matrix.nt, matrix.nd))
m_adj = engine.rmatvec(dv, config="ddddd")
lhs, rhs = np.vdot(d, dv), np.vdot(m, m_adj)
print(f"\nadjoint dot-test: <Fm,d>={lhs:.6f}  <m,F*d>={rhs:.6f}")

# Everything the device clock has charged so far, setup included, by phase.
totals = engine.device.clock.phase_totals()
print("modeled device time by phase, all calls: "
      + ", ".join(f"{p} {t * 1e6:.1f} us" for p, t in sorted(totals.items())))

# --- skew: what an irregular partition costs --------------------------------
# Distribute a bigger problem over a simulated 2x2 grid twice: on the even
# split, and with rank column 0 owning 1.5x its parameter share.  Every
# rank computes on its own clock and every collective waits for the
# slowest, so the skewed grid pays the skew on every chunk.
from repro.comm import ProcessGrid, skewed_extents
from repro.comm.netmodel import FRONTIER_NETWORK
from repro.core.parallel import ParallelFFTMatvec

nt, nd, nm, k = 192, 16, 384, 8
big = BlockTriangularToeplitz.random(nt, nd, nm, rng=rng, decay=0.05)
D = rng.standard_normal((nt, nd, k))
skewed = skewed_extents(nm, 2, skew=0.5)


def modeled_wall(col_ranges=None):
    grid = ProcessGrid(2, 2, net=FRONTIER_NETWORK)
    eng = ParallelFFTMatvec(big, grid, spec="MI250X", max_block_k=4,
                            col_ranges=col_ranges)
    t0 = grid.clock.now
    out = eng.rmatmat(D, overlap=False)
    ranks = eng.rank_compute_report()  # {(row, col): compute seconds}
    return grid.clock.now - t0, out, max(ranks.values()) / min(ranks.values())


t_even, M_even, spread_even = modeled_wall()
t_skewed, M_skewed, spread_skewed = modeled_wall(skewed)
assert np.array_equal(M_skewed, M_even)  # the partition never moves a bit
print(f"\n2x2 grid, F* on {k} vectors (column 0 owns {skewed[0][1]}/{nm} parameters when skewed):")
print(f"  modeled wall, even split: {t_even * 1e6:8.2f} us "
      f"(slowest / fastest rank compute {spread_even:.3f})")
print(f"  modeled wall, skewed:     {t_skewed * 1e6:8.2f} us "
      f"({t_skewed / t_even:.3f}x, numerics bitwise-unchanged; "
      f"slowest / fastest rank compute {spread_skewed:.3f})")
