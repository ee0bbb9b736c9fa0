"""Hierarchical alpha-beta network model.

Frontier's interconnect is hierarchical: GPUs within a group (node/rack
neighbourhood) communicate with low latency and high bandwidth; traffic
crossing groups pays higher latency and, crucially, *congestion* that
grows with how many ranks participate in a group-spanning collective —
this is what makes global reductions over thousands of GCDs expensive
and why communication-aware partitioning wins >3x at 4,096 GPUs.

Parameters are calibrated (see ``benchmarks/test_fig4_scaling.py``) so
that the paper's observed facts hold: communication is latency-bound for
FFTMatvec's 0.8–40 MB buffers at 100 GB/s, one processor-grid row is
optimal up to 512 GPUs, multiple rows win beyond, and a 20-billion-
parameter matvec lands around ~0.1 s on 4,096 GPUs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_positive_int

__all__ = ["NetworkModel", "FRONTIER_NETWORK", "SIMPLE_NETWORK"]


@dataclass(frozen=True)
class NetworkModel:
    """Two-level latency/bandwidth model.

    Attributes
    ----------
    alpha_intra:
        Per-message latency within a group (seconds).
    alpha_inter:
        Base per-message latency across groups (seconds).
    beta_intra / beta_inter:
        Inverse bandwidths within/across groups (seconds per byte).
    group_size:
        Ranks per group (512 on our Frontier model: the scale above
        which the paper's grid-row count starts growing).
    congestion_ranks:
        Normalizer for inter-group congestion: an inter-group tree step
        with ``k`` participants is slowed by ``1 + k / congestion_ranks``.
    overlap_efficiency:
        Fraction of a collective's cost that can be hidden behind
        concurrent compute (1.0 = the NIC/RCCL engines run fully
        independently; 0.0 = overlap buys nothing).  The overlapped grid
        schedule charges the exposed remainder,
        ``(1 - overlap_efficiency) * t``, onto the compute stream as a
        contention penalty for every collective it overlaps — the
        prefetched broadcasts and the interior reduces — so at 0.0 the
        schedule converges back to the serial charge.
    """

    alpha_intra: float
    alpha_inter: float
    beta_intra: float
    beta_inter: float
    group_size: int
    congestion_ranks: int
    overlap_efficiency: float = 1.0

    def exposed_fraction(self) -> float:
        """Share of an overlapped collective that still costs compute time."""
        return max(0.0, min(1.0, 1.0 - self.overlap_efficiency))

    def groups_spanned(self, span: int) -> int:
        """Number of groups a contiguous span of ranks touches."""
        check_positive_int(span, "span")
        return max(1, -(-span // self.group_size))

    def inter_step_latency(self, participants: int) -> float:
        """Latency of one inter-group tree step with congestion."""
        return self.alpha_inter * (1.0 + participants / self.congestion_ranks)


# Calibrated Frontier-like parameters: 100 GB/s NIC bandwidth (the paper's
# number), ~10 us in-group latency, 1.5 ms base cost per machine-spanning
# tree level, congestion normalizer 256 (a 4096-rank global tree step is
# ~17x slower than a 16-participant one). These values reproduce the
# paper's facts: 1-row grids optimal through 512 GPUs, multi-row beyond,
# >3x partitioning win and ~0.1 s matvec time at 4,096 GPUs.
FRONTIER_NETWORK = NetworkModel(
    alpha_intra=10e-6,
    alpha_inter=1.5e-3,
    beta_intra=1.0 / 200e9,
    beta_inter=1.0 / 100e9,
    group_size=512,
    congestion_ranks=256,
)

# A flat, fast network for unit tests (no hierarchy effects).
SIMPLE_NETWORK = NetworkModel(
    alpha_intra=1e-6,
    alpha_inter=1e-6,
    beta_intra=1.0 / 100e9,
    beta_inter=1.0 / 100e9,
    group_size=1 << 30,
    congestion_ranks=1 << 30,
)
