"""Communication-aware partitioning (Section 3.7 of the FFTMatvec paper).

Given the problem size, GPU count and network parameters, choose the
processor-grid shape ``(pr, pc)`` minimizing the modeled communication
cost of one F matvec:

* Phase 1 broadcasts each column's local parameter block (``nm * Nt``
  doubles, ``nm = Nm/pc``) down the ``pr`` members of the column — a
  strided, machine-spanning collective;
* Phase 5 reduces each row's local data block (``(Nd/pr) * Nt`` doubles)
  across the ``pc`` contiguous members of the row.

With one row the broadcast vanishes but the reduction spans every rank;
past the network's group size the congested global tree makes multi-row
grids win — the paper reports 1 row through 512 GPUs, 8 rows for
1024–2048, 16 rows at 4096, and a >3x gain from partitioning at 4096.
:func:`published_frontier_rows` records that published schedule;
:func:`communication_aware_partition` computes the model's argmin.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.comm.collectives import tree_collective_time
from repro.comm.netmodel import FRONTIER_NETWORK
from repro.util.validation import ReproError, check_positive_int

__all__ = [
    "matvec_comm_cost",
    "communication_aware_partition",
    "published_frontier_rows",
    "candidate_rows",
    "skewed_extents",
    "check_extents",
]

_ITEM = 8  # double-precision bytes; comm buffers are FP64 by default


def matvec_comm_cost(
    nm_global: int,
    nd: int,
    nt: int,
    pr: int,
    pc: int,
) -> float:
    """Modeled communication seconds of one double F matvec on a pr x pc
    grid of the Frontier network.

    ``nm_global`` is the total spatial parameter count; each grid column
    owns ``ceil(nm_global/pc)`` of it.
    """
    check_positive_int(pr, "pr")
    check_positive_int(pc, "pc")
    p = pr * pc
    nm_local = -(-nm_global // pc)
    nd_local = -(-nd // pr)
    bcast_bytes = nm_local * nt * _ITEM
    reduce_bytes = nd_local * nt * _ITEM
    # Column broadcast: pr members, strided by pc, spanning ~the machine.
    col_span = (pr - 1) * pc + 1
    t_bcast = tree_collective_time(pr, bcast_bytes, FRONTIER_NETWORK, span=col_span)
    # Row reduction: pc contiguous members.
    t_reduce = tree_collective_time(pc, reduce_bytes, FRONTIER_NETWORK, span=pc)
    return t_bcast + t_reduce


def candidate_rows(p: int) -> Tuple[int, ...]:
    """Power-of-two row counts dividing p (the shapes the paper sweeps).

    >>> candidate_rows(8)
    (1, 2, 4, 8)
    >>> candidate_rows(12)
    (1, 2, 4)
    """
    check_positive_int(p, "p")
    out = []
    r = 1
    while r <= p:
        if p % r == 0:
            out.append(r)
        r *= 2
    return tuple(out)


def communication_aware_partition(
    nm_global: int,
    nd: int,
    nt: int,
    p: int,
) -> Tuple[int, int]:
    """Choose (pr, pc) among :func:`candidate_rows` minimizing the modeled
    matvec communication cost."""
    check_positive_int(p, "p")
    best: Optional[Tuple[float, int]] = None
    for pr in candidate_rows(p):
        pc = p // pr
        cost = matvec_comm_cost(nm_global, nd, nt, pr, pc)
        if best is None or cost < best[0] or (cost == best[0] and pr < best[1]):
            best = (cost, pr)
    assert best is not None
    return best[1], p // best[1]


def check_extents(
    extents: Sequence[Tuple[int, int]], n: int, parts: int, what: str = "extents"
) -> List[Tuple[int, int]]:
    """Validate a 1-D block partition: contiguous, non-empty, covers [0, n).

    The contract :class:`~repro.core.parallel.ParallelFFTMatvec` requires
    of caller-supplied row/column partitions.  Returns a normalized list
    of ``(start, stop)`` int tuples.

    >>> check_extents([(0, 3), (3, 8)], 8, 2)
    [(0, 3), (3, 8)]
    >>> check_extents([(0, 3), (4, 8)], 8, 2)
    Traceback (most recent call last):
        ...
    repro.util.validation.ReproError: extents: range 1 starts at 4, \
expected 3 (ranges must be contiguous and ordered)
    """
    check_positive_int(n, "n")
    check_positive_int(parts, "parts")
    out: List[Tuple[int, int]] = []
    if len(extents) != parts:
        raise ReproError(f"{what}: expected {parts} ranges, got {len(extents)}")
    cursor = 0
    for i, (start, stop) in enumerate(extents):
        start, stop = int(start), int(stop)
        if start != cursor:
            raise ReproError(
                f"{what}: range {i} starts at {start}, expected {cursor} "
                "(ranges must be contiguous and ordered)"
            )
        if stop <= start:
            raise ReproError(f"{what}: range {i} is empty ({start}, {stop})")
        out.append((start, stop))
        cursor = stop
    if cursor != n:
        raise ReproError(f"{what}: ranges cover [0, {cursor}), expected [0, {n})")
    return out


def skewed_extents(n: int, parts: int, skew: float = 0.5) -> List[Tuple[int, int]]:
    """A deliberately *irregular* 1-D block partition.

    Part 0 owns roughly ``(1 + skew)`` times the balanced share (capped
    so every other part keeps at least one element); the remainder is
    split evenly.  With per-rank charging, the simulator's wall time
    follows the largest part — the skew the balanced `split_extent`
    partition hides.  ``skew=0`` degenerates to the balanced split.

    >>> skewed_extents(8, 2, skew=0.5)
    [(0, 6), (6, 8)]
    >>> skewed_extents(8, 2, skew=0.0)
    [(0, 4), (4, 8)]
    """
    check_positive_int(n, "n")
    check_positive_int(parts, "parts")
    if parts > n:
        raise ReproError(f"cannot split {n} elements into {parts} non-empty parts")
    if skew < 0:
        raise ReproError(f"skew must be >= 0, got {skew}")
    big = int(math.ceil(n / parts * (1.0 + skew)))
    big = max(1, min(big, n - (parts - 1)))
    out: List[Tuple[int, int]] = [(0, big)]
    rest = n - big
    start = big
    if parts > 1:
        base, extra = divmod(rest, parts - 1)
        for p in range(parts - 1):
            stop = start + base + (1 if p < extra else 0)
            out.append((start, stop))
            start = stop
    return check_extents(out, n, parts, what="skewed_extents")


def published_frontier_rows(p: int) -> int:
    """The paper's published Frontier schedule (Section 4.2.2).

    One processor row for <= 512 GPUs, eight rows for 1024 and 2048
    GPUs, sixteen rows for 4096 GPUs.

    >>> [published_frontier_rows(p) for p in (512, 1024, 4096)]
    [1, 8, 16]
    """
    check_positive_int(p, "p")
    if p <= 512:
        return 1
    if p <= 2048:
        return 8 if p % 8 == 0 else 1
    return 16 if p % 16 == 0 else 1
