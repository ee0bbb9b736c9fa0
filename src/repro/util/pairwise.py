"""Fixed-order pairwise (binary-tree) reduction machinery.

Floating-point addition is not associative, so the *grouping* of a sum
is part of its numerical identity.  BLAS kernels accumulate GEMM panels
in whatever order the tiling dictates, and a distributed row-reduce
groups per-rank partial sums by rank — both change bits the moment the
partition (or the RHS block width) changes.  This module pins one
canonical grouping for any contraction axis of length ``n``:

* Leaves are the ``n`` global contraction indices, embedded in a
  *virtual* complete binary tree over ``[0, N)`` with
  ``N = virtual_span(n)`` (the next power of two).  Nodes whose span
  lies entirely at or beyond ``n`` are *absent*; a node with an absent
  right child takes its left child's value unchanged (no addition).
* :func:`canonical_segments` decomposes any contiguous index range into
  the unique maximal set of tree nodes covering it (at most
  ``2*log2(n)`` of them) — the standard segment-tree decomposition.
* :func:`fold_in_place` evaluates one node's value from its present
  leaves by level-order adjacent pairing with odd-tail passthrough,
  which is provably the same grouping as the virtual tree (an unpaired
  trailing node at any level is exactly a node with an absent right
  sibling).  It works in a caller-owned buffer with doubling strides;
  :func:`fold_pairwise` is its non-mutating wrapper.
* :func:`fixed_tree_merge` combines per-segment node values up the tree
  by splitting at virtual midpoints, so *every* addition performed —
  inside segments and across them — is an edge of the one fixed tree.

The consequence the engines build on: however ``[0, n)`` is partitioned
into contiguous ranges, computing each range's canonical segment values
locally and merging them yields the root value **bitwise identical** to
any other partition (including the trivial single-range one).  Adjacent
pairing is also how :func:`repro.comm.collectives.tree_reduce_arrays`
folds per-rank contributions, so the intra-rank and inter-rank trees
compose into a single reduction order.

Everything here is elementwise (``multiply``/``add`` through the
backend seam, never ``matmul``), because a fused multiply-add or a
vendor dot-product kernel would regroup the sum we are pinning down.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Tuple

from repro.backend import Backend, NumpyBackend
from repro.util.validation import ReproError

__all__ = [
    "virtual_span",
    "canonical_segments",
    "fold_in_place",
    "fold_pairwise",
    "fixed_tree_merge",
    "validate_segments",
]

_NUMPY = NumpyBackend()

Segment = Tuple[int, int]


def virtual_span(n: int) -> int:
    """Smallest power of two >= ``n`` (the virtual tree's leaf count)."""
    if n < 1:
        raise ReproError(f"n must be >= 1, got {n}")
    return 1 << (n - 1).bit_length()


def canonical_segments(start: int, stop: int, n: int) -> Tuple[Segment, ...]:
    """Maximal tree nodes tiling the contiguous range ``[start, stop)``.

    Returns virtual extents ``(s, e)`` with ``e - s`` a power of two and
    ``s`` a multiple of ``e - s`` — i.e. genuine nodes of the virtual
    tree over ``[0, virtual_span(n))``.  When ``stop == n`` the trailing
    segment may extend past ``n``: its absent leaves contribute nothing
    (passthrough), so its value still equals the sum over
    ``[s, n)`` — and, crucially, it *is* a tree node, which is what lets
    :func:`fixed_tree_merge` combine segments from different ranks
    without ever splitting one.

    At most ``2 * ceil(log2(n))`` segments are produced, and no two are
    siblings (a sibling pair would have been their parent instead).
    """
    if not 0 <= start < stop <= n:
        raise ReproError(
            f"need 0 <= start < stop <= n, got [{start}, {stop}) with n={n}"
        )
    span = virtual_span(n)
    # Ranges ending at n own the virtual tail: let their last segment
    # round up to a full node.  Interior ranges must stop exactly.
    bound = span if stop >= n else stop
    segments: List[Segment] = []
    cur = start
    while cur < stop:
        size = (cur & -cur) or span  # largest node starting at cur
        while cur + size > bound:
            size //= 2
        segments.append((cur, cur + size))
        cur += size
    return tuple(segments)


def fold_in_place(
    buf: Any, count: int, backend: Optional[Backend] = None, out: Optional[Any] = None
) -> Any:
    """Fold ``buf[:count]`` along axis 0 in fixed level-order pairs, in place.

    The one pairing routine of the module.  At level ``l`` the surviving
    nodes sit at rows ``0, 2^l, 2*2^l, ...``; each row at an even
    multiple adds the row ``2^l`` above it into itself
    (``add(a, b, out=a)``), and a row whose partner would lie at or past
    ``count`` is left untouched — the odd-tail passthrough, i.e. a node
    of the virtual tree whose right child is absent.  Row ``p`` at level
    ``l`` therefore holds the tree sum of leaves ``[p, p + 2^l)``
    clipped to ``count``: the same grouping for every ``count``, with no
    per-level allocation and no data movement besides the additions.

    ``buf`` is caller-owned scratch and is overwritten; rows past
    ``count`` are ignored.  Returns the root: ``buf[0]``, or ``out`` when
    given (the last addition — or a copy for ``count == 1`` — lands
    there, which saves the caller a pass over the result).
    """
    be = backend if backend is not None else _NUMPY
    if count < 1:
        raise ReproError("cannot fold an empty axis")
    step = 1
    while step < count:
        if out is not None and 2 * step >= count:
            return be.add(buf[0], buf[step], out=out)
        left = buf[0 : count - step : 2 * step]
        be.add(left, buf[step : count : 2 * step], out=left)
        step *= 2
    if out is None:
        return buf[0]
    be.copyto(out, buf[0])
    return out


def fold_pairwise(leaves: Any, axis: int = 0, backend: Optional[Backend] = None) -> Any:
    """Reduce ``leaves`` along ``axis`` in fixed level-order pairs.

    Level by level, adjacent pairs are added and an odd trailing node
    passes through unchanged — the grouping of a complete binary tree
    over the next power of two with absent leaves skipped.  Returns the
    root value with ``axis`` removed.  Additions happen in the input
    dtype via ``backend.add`` (elementwise — per-output-element order is
    independent of every other axis, which is what makes blocked and
    looped applies bitwise-identical).

    ``leaves`` is not modified: the first level lands in a fresh buffer
    of ``ceil(count / 2)`` nodes and :func:`fold_in_place` finishes the
    tree there.
    """
    be = backend if backend is not None else _NUMPY
    count = int(leaves.shape[axis])
    if count < 1:
        raise ReproError(f"cannot fold an empty axis (axis {axis})")
    order = (axis,) + tuple(i for i in range(leaves.ndim) if i != axis)
    rows = be.transpose(leaves, order)
    if count == 1:
        return rows[0]
    pairs = count // 2
    nodes = be.empty((count - pairs,) + tuple(rows.shape[1:]), be.dtype_of(leaves))
    be.add(rows[0 : 2 * pairs : 2], rows[1 : 2 * pairs : 2], out=nodes[:pairs])
    if count % 2:
        be.copyto(nodes[pairs:], rows[count - 1 :])
    return fold_in_place(nodes, count - pairs, backend=be)


def validate_segments(segments: Mapping[Segment, Any], n: int) -> None:
    """Check that segment keys canonically tile ``[0, n)``.

    Every key must be a virtual tree node (power-of-two length, aligned
    start), they must be disjoint, and together they must cover exactly
    ``[0, n)`` (virtual tails past ``n`` allowed only on the last one).
    """
    if not segments:
        raise ReproError("no segments to merge")
    span = virtual_span(n)
    keys = sorted(segments.keys())
    cur = 0
    for s, e in keys:
        size = e - s
        if size < 1 or (size & (size - 1)) or s % size or e > span:
            raise ReproError(f"({s}, {e}) is not a node of the virtual tree [0, {span})")
        if s != cur:
            raise ReproError(
                f"segments must tile [0, {n}) contiguously; gap/overlap at {cur} vs ({s}, {e})"
            )
        cur = e
    # Either the segments end exactly at n, or the last one is a tail
    # node whose present leaves reach n and whose absent leaves extend
    # virtually past it.
    if not (cur == n or keys[-1][0] < n < cur):
        raise ReproError(f"segments cover [0, {cur}), expected [0, {n})")


def fixed_tree_merge(
    segments: Mapping[Segment, Any],
    n: int,
    backend: Optional[Backend] = None,
) -> Any:
    """Combine canonical segment values into the tree's root value.

    ``segments`` maps virtual extents (from :func:`canonical_segments`,
    possibly produced by different ranks over different sub-ranges) to
    their node values.  The merge recurses from the virtual root,
    splitting at node midpoints and skipping absent right children, so
    each addition is a tree edge — the result is bitwise-independent of
    how ``[0, n)`` was partitioned.  Segment values are consumed as-is
    (cast before calling if a reduction precision is required).
    """
    be = backend if backend is not None else _NUMPY
    validate_segments(segments, n)
    return _node_value(segments, n, be, 0, virtual_span(n))


def _node_value(
    segments: Mapping[Segment, Any], n: int, be: Backend, s: int, e: int
) -> Any:
    # Module-level, not a closure inside fixed_tree_merge: a nested
    # function that calls itself is a reference cycle (function -> its
    # own closure cell), which kept ``segments`` — every rank's partial
    # panels — alive until the cycle collector's next pass.
    found = segments.get((s, e))
    if found is not None:
        return found
    mid = (s + e) // 2
    left = _node_value(segments, n, be, s, mid)
    if mid >= n:
        return left  # absent right child: passthrough, no addition
    return be.add(left, _node_value(segments, n, be, mid, e))
