"""Simulated multi-GPU communication substrate.

FFTMatvec runs on a 2D processor grid ``pr x pc`` using RCCL collectives
on Frontier.  The engines need two of them — a column broadcast and a
row reduce — and this package simulates exactly those in-process:

* :mod:`repro.comm.netmodel` — a hierarchical alpha-beta network model
  (intra-group vs inter-group latency/bandwidth, congestion growing with
  the number of ranks whose collective spans groups), with Frontier-like
  parameters calibrated to the paper's scaling section.
* :mod:`repro.comm.collectives` — tree-algorithm *numerics*: reductions
  are evaluated pairwise in the configured precision so the floating-
  point error genuinely grows like ``eps * log2(p)`` (the term Eq. (6)
  attributes to Phase 5), plus matching cost formulas.
* :mod:`repro.comm.simcomm` — :class:`SimCommunicator`: an SPMD world of
  ``p`` ranks executed sequentially in-process; bcast/reduce over
  per-rank NumPy arrays, advancing a shared simulated clock.
* :mod:`repro.comm.grid` — the 2D process grid with row/column
  subcommunicators (row-major placement: a grid row occupies contiguous
  ranks, as on Frontier with "closest" GPU binding).
* :mod:`repro.comm.partition` — communication-aware partitioning:
  chooses ``(pr, pc)`` by minimizing the modeled matvec communication
  cost; also records the paper's published Frontier schedule (1 row up
  to 512 GPUs, 8 rows for 1024–2048, 16 rows at 4096).
"""

from repro.comm.netmodel import NetworkModel, FRONTIER_NETWORK
from repro.comm.collectives import (
    tree_reduce_arrays,
    tree_collective_time,
    ring_allreduce_time,
)
from repro.comm.simcomm import SimCommunicator
from repro.comm.grid import ProcessGrid
from repro.comm.partition import (
    communication_aware_partition,
    published_frontier_rows,
    matvec_comm_cost,
    skewed_extents,
    check_extents,
)
from repro.comm.fault import (
    CorruptionSchedule,
    FailureSchedule,
    NumericalHealthError,
    RankFailure,
    SilentCorruption,
)

__all__ = [
    "NetworkModel",
    "FRONTIER_NETWORK",
    "tree_reduce_arrays",
    "tree_collective_time",
    "ring_allreduce_time",
    "SimCommunicator",
    "ProcessGrid",
    "communication_aware_partition",
    "published_frontier_rows",
    "matvec_comm_cost",
    "skewed_extents",
    "check_extents",
    "FailureSchedule",
    "RankFailure",
    "CorruptionSchedule",
    "SilentCorruption",
    "NumericalHealthError",
]
