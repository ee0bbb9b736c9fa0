"""Performance models at paper scale.

The paper's benchmark sizes (Nm=5000, Nd=100, Nt=1000 → an 8 GB
``F_hat``) are too large to execute numerically here, so the figure
benches evaluate the *same cost formulas the engine charges* at full
scale without allocating the arrays:

* :mod:`repro.perf.phase_model` — per-phase modeled times of one F/F*
  matvec for any (Nm, Nd, Nt, precision config, GPU); mirrors the
  engine's kernel charges one-for-one (a test pins them together).
* :mod:`repro.perf.scaling` — the multi-GPU model behind Figure 4:
  compute + broadcast + reduce per GPU count and grid shape, speedups of
  mixed configurations, and the Eq. (6) error trend.
"""

from repro.perf.phase_model import modeled_timing, phase_times, recovery_cost_model
from repro.perf.scaling import ScalingPoint, scaling_sweep, matvec_time_at_scale

__all__ = [
    "modeled_timing",
    "phase_times",
    "recovery_cost_model",
    "ScalingPoint",
    "scaling_sweep",
    "matvec_time_at_scale",
]
