"""Collective algorithms: tree numerics + cost formulas.

Two concerns live here, deliberately together so tests can check they
stay consistent:

* **Numerics** — :func:`tree_reduce_arrays` reduces a list of per-rank
  arrays pairwise in a binary tree, with every addition performed in the
  requested precision.  This is how RCCL's tree reduction accumulates,
  and it is what makes the measured reduction error grow like
  ``eps * log2(p)`` — the Phase-5 term of the paper's Eq. (6).
* **Cost** — :func:`tree_collective_time` models a tree
  broadcast/reduce over ``k`` ranks whose placement spans ``span``
  consecutive ranks: the top ``log2(groups)`` tree levels cross groups
  (congested, see :class:`~repro.comm.netmodel.NetworkModel`), the rest
  stay inside a group.  Large messages pipeline, so the volume term is
  paid once at the bottleneck link, not per level.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Sequence

from repro.backend import Backend, NumpyBackend
from repro.comm.netmodel import NetworkModel
from repro.util.dtypes import Precision
from repro.util.pairwise import fixed_tree_merge
from repro.util.validation import ReproError

__all__ = [
    "tree_reduce_arrays",
    "fixed_tree_reduce_segments",
    "tree_collective_time",
    "ring_allreduce_time",
    "log2_steps",
]

_NUMPY = NumpyBackend()


def log2_steps(k: int) -> int:
    """Number of tree levels for k participants: ceil(log2(k))."""
    if k < 1:
        raise ReproError(f"k must be >= 1, got {k}")
    return int(math.ceil(math.log2(k))) if k > 1 else 0


def tree_reduce_arrays(
    arrays: Sequence[Any],
    precision: Optional[Precision] = None,
    backend: Optional[Backend] = None,
) -> Any:
    """Binary-tree pairwise sum of per-rank arrays.

    All additions are evaluated at ``precision`` (default: the precision
    of the inputs), reproducing the accumulation order of an RCCL tree
    reduction.  The result keeps the computation dtype; the caller casts
    back as its precision configuration dictates.  Contributions may be
    arrays of the given ``backend`` (default numpy); the accumulation
    then stays on that backend.

    The fold — adjacent pairs per level, an odd trailing contribution
    passing through unchanged — is exactly the virtual power-of-two tree
    of :mod:`repro.util.pairwise` applied over the *rank index*.  That
    makes the grouping deterministic for a fixed rank count, but the
    tree is indexed by rank, so changing the partition regroups the sum:
    what lands in rank ``i``'s contribution moves between leaves.  When
    the accumulation must be invariant to the partition itself, reduce
    *canonical segments of the contraction axis* instead with
    :func:`fixed_tree_reduce_segments`, whose tree is indexed by global
    element position.
    """
    be = backend if backend is not None else _NUMPY
    if len(arrays) == 0:
        raise ReproError("cannot reduce zero arrays")
    work: List[Any] = []
    owned: List[bool] = []  # True once a buffer is a reduction temporary
    for a in arrays:
        arr = be.asarray(a)
        if precision is not None:
            cast = be.cast(arr, precision)
            work.append(cast)
            owned.append(cast is not arr)  # cast copies iff it converts
        else:
            work.append(arr)
            owned.append(False)
    shape = tuple(work[0].shape)
    for i, a in enumerate(work):
        if tuple(a.shape) != shape:
            raise ReproError(
                f"rank {i} contribution has shape {tuple(a.shape)}, expected {shape}"
            )
    while len(work) > 1:
        nxt: List[Any] = []
        nxt_owned: List[bool] = []
        for i in range(0, len(work) - 1, 2):
            a, b = work[i], work[i + 1]
            if owned[i]:
                # Accumulate in place into the temporary this level
                # already owns — add(a, b, out=a) rounds exactly like
                # a + b, so the tree numerics are unchanged while the
                # upper levels allocate nothing.
                be.add(a, b, out=a)
                nxt.append(a)
            else:
                nxt.append(be.add(a, b))
            nxt_owned.append(True)
        if len(work) % 2 == 1:
            nxt.append(work[-1])
            nxt_owned.append(owned[-1])
        work, owned = nxt, nxt_owned
    return work[0]


def fixed_tree_reduce_segments(
    segments: Any,
    n: int,
    backend: Optional[Backend] = None,
) -> Any:
    """Partition-invariant reduction of canonical contraction segments.

    ``segments`` maps virtual tree extents ``(s, e)`` (each rank
    contributes the :func:`repro.util.pairwise.canonical_segments` of
    its contiguous slice of a global axis of length ``n``) to partial
    arrays; ranks' dicts may be merged into one since their keys are
    disjoint.  Every addition performed is an edge of the one virtual
    binary tree over ``[0, n)``, so the result is **bitwise identical
    for any partition**, width-1 parts included — per-rank tree leaves
    never move when extents change.  All adds happen at the dtype the
    contributions arrive in.
    """
    be = backend if backend is not None else _NUMPY
    if not segments:
        raise ReproError("cannot reduce zero segments")
    work = {}
    for key, arr in segments.items():
        work[key] = be.asarray(arr)
    return fixed_tree_merge(work, n, backend=be)


def tree_collective_time(
    k: int,
    nbytes: float,
    net: NetworkModel,
    span: Optional[int] = None,
) -> float:
    """Modeled seconds for a tree broadcast/reduce over ``k`` ranks.

    Parameters
    ----------
    k:
        Number of participating ranks.
    nbytes:
        Message size per rank.
    span:
        Number of consecutive machine ranks the participants are spread
        over (>= k); defaults to ``k`` (contiguous placement).
    """
    if k < 1:
        raise ReproError(f"k must be >= 1, got {k}")
    if nbytes < 0:
        raise ReproError(f"nbytes must be >= 0, got {nbytes}")
    if k == 1:
        return 0.0
    span = k if span is None else max(span, k)
    groups = net.groups_spanned(span)
    steps = log2_steps(k)
    inter_steps = min(steps, log2_steps(groups))
    intra_steps = steps - inter_steps
    t = intra_steps * net.alpha_intra + inter_steps * net.inter_step_latency(k)
    # Pipelined volume: paid once over the slowest link on the path.
    beta = net.beta_inter if inter_steps > 0 else net.beta_intra
    t += nbytes * beta
    return t


def ring_allreduce_time(k: int, nbytes: float, net: NetworkModel) -> float:
    """Ring allreduce: 2(k-1) steps, 2(k-1)/k of the volume per link.

    Used by the ablation benches to compare against the tree model.
    """
    if k < 1:
        raise ReproError(f"k must be >= 1, got {k}")
    if k == 1:
        return 0.0
    steps = 2 * (k - 1)
    volume = 2.0 * (k - 1) / k * nbytes
    groups = net.groups_spanned(k)
    if groups > 1:
        return steps * net.inter_step_latency(k) + volume * net.beta_inter
    return steps * net.alpha_intra + volume * net.beta_intra
