"""Skew-searching load balancer for ``row_ranges`` / ``col_ranges``.

The event-timeline engine (:class:`~repro.core.parallel.ParallelFFTMatvec`)
charges per-rank compute on private clocks and takes the max over ranks
at every collective, so an irregular partition — or a heterogeneous grid
where ranks own devices of differing throughput — charges genuine skew:
the slowest rank gates the wall.  This module closes the loop and
*removes* that skew: given a per-part cost model it **searches** the 1-D
block partition minimizing the modeled max-over-parts cost.

The search is deterministic and two-staged, the classic
measure-then-rebalance loop of workflow-coupled simulators:

1. **weighted-split seed** — part lengths proportional to the inverse
   per-element cost (a fast rank gets more rows), with cost-aware
   rounding so the integer lengths sum to ``n`` without handing the
   leftover elements to expensive parts;
2. **greedy boundary-shift descent** — every interior boundary is tried
   one element left and one element right; the single shift that most
   reduces the max-over-parts objective is committed, and the loop
   repeats until no shift improves it (convergence) or the round cap is
   hit.  The seed and every committed candidate are validated with
   :func:`~repro.comm.partition.check_extents`, so each partition the
   search walks through satisfies the engine's contract.

Cost models come from two sources:

* **analytic** — :func:`analytic_unit_costs` derives per-part seconds
  per element from per-rank :class:`~repro.gpu.specs.GPUSpec` throughput
  (a heterogeneous grid balances before any measurement exists);
* **measured** — :func:`measured_unit_costs` divides the per-rank
  compute seconds harvested from the engine's private clocks
  (:meth:`~repro.core.parallel.ParallelFFTMatvec.rank_compute_report`)
  by the current extents, turning PR 3's skew *diagnostic* into the
  input of the rebalance.

:func:`rebalance_rows` / :func:`rebalance_cols` wire both sources to a
live engine; :func:`recovered_skew_fraction` scores how much of the
injected skew a searched partition wins back (the acceptance metric of
``benchmarks/test_balance_grid.py``).

Only modeled *time* moves: repartitioning the searched axis never
regroups a floating-point accumulation (the contraction and reduction
grouping live on the *other* axis), so the forward pipeline is
bitwise-invariant under row repartitions and the adjoint pipeline under
column repartitions.  Repartitioning the *contraction* axis does
regroup the sum in the engines' default ``reduction="fast"`` mode — the
vendor kernels accumulate per local panel and the grid reduce is
indexed by rank — but ``reduction="pairwise"``
(:class:`~repro.core.parallel.ParallelFFTMatvec`) pins the whole
distributed contraction to one fixed tree over *global* element
indices, making results bitwise identical for **any** partition the
search produces, including width-1 parts.  The historical
``min_part=2`` escape hatch (keep every part non-degenerate so the
vendor BLAS never switches to a width-1 kernel) remains available for
fast-mode runs, but the default ``min_part=1`` searches the full
partition space: in pairwise mode there is no reproducibility reason to
exclude single-element parts.

:func:`balance_grid` extends the 1-D search to the joint row x col
problem — alternating axis passes against a per-rank unit-cost model
(rank compute ~ ``unit(r, c) * nd_r * nm_c``) to a fixed point — and
:func:`affine_part_costs` upgrades the measured cost model from linear
to affine (``cost = a + b * n``, per-rank constants separated from the
per-element slope) using two measurement rounds under different
partitions; :func:`measure_rebalance_loop` accepts
``cost_model="affine"`` to use it, which stops the single-pass
under-correction the linear model needs extra rounds to walk off.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.comm.grid import ProcessGrid
from repro.comm.partition import check_extents
from repro.gpu.specs import GPUSpec
from repro.util.dtypes import Precision
from repro.util.validation import ReproError, check_positive_int

__all__ = [
    "BalanceResult",
    "GridBalanceResult",
    "MeasureRebalanceResult",
    "balance_extents",
    "balance_grid",
    "linear_cost",
    "affine_cost",
    "analytic_unit_costs",
    "measured_unit_costs",
    "affine_part_costs",
    "rebalance_rows",
    "rebalance_cols",
    "measure_rebalance_loop",
    "recovered_skew_fraction",
]

# Part-cost callable: (part_index, part_length) -> modeled seconds.
PartCost = Callable[[int, int], float]


@dataclass(frozen=True)
class BalanceResult:
    """Outcome of one partition search.

    Attributes
    ----------
    extents:
        The searched partition — contiguous ``(start, stop)`` per part,
        valid under :func:`~repro.comm.partition.check_extents`.
    modeled_max:
        Max-over-parts modeled seconds of ``extents`` (the objective).
    modeled_costs:
        Per-part modeled seconds of ``extents``.
    seed_max:
        Objective of the weighted-split seed, before descent.
    initial_max:
        Objective of the partition the caller started from (equals
        ``seed_max`` when no initial partition was supplied).
    rounds:
        Boundary-shift rounds the descent ran.
    candidates_checked:
        Total candidate partitions validated and evaluated.
    converged:
        True when the descent stopped because no single boundary shift
        improved the objective (False only if the round cap was hit).
    """

    extents: List[Tuple[int, int]]
    modeled_max: float
    modeled_costs: List[float]
    seed_max: float
    initial_max: float
    rounds: int
    candidates_checked: int
    converged: bool

    @property
    def modeled_skew(self) -> float:
        """Max-over-mean of the searched partition's modeled costs."""
        mean = sum(self.modeled_costs) / len(self.modeled_costs)
        return self.modeled_max / mean if mean > 0 else 1.0

    @property
    def improvement(self) -> float:
        """``initial_max / modeled_max`` — the searched speedup."""
        return self.initial_max / self.modeled_max if self.modeled_max > 0 else 1.0


def linear_cost(unit_costs: Sequence[float]) -> PartCost:
    """Part-cost callable for a linear model: ``cost = unit * length``.

    ``unit_costs[i]`` is part ``i``'s modeled seconds per owned element —
    the output of :func:`analytic_unit_costs` or
    :func:`measured_unit_costs`.
    """
    units = [float(u) for u in unit_costs]
    if not units:
        raise ReproError("unit_costs must be non-empty")
    for i, u in enumerate(units):
        if u <= 0:
            raise ReproError(f"unit_costs[{i}] must be > 0, got {u}")

    def cost(part: int, length: int) -> float:
        return units[part] * length

    return cost


def affine_cost(
    constants: Sequence[float], unit_costs: Sequence[float]
) -> PartCost:
    """Part-cost callable for an affine model: ``cost = a + b * length``.

    ``constants[i]`` (seconds, >= 0) captures part ``i``'s
    extent-independent charges — kernel launch overheads and the phases
    batched over the *other* grid axis — and ``unit_costs[i]`` (> 0) the
    per-element slope.  The constants do not move when the boundary
    does, which is exactly why a linear fit to a measurement that
    includes them under-corrects; see :func:`affine_part_costs`.
    """
    a = [float(x) for x in constants]
    b = [float(x) for x in unit_costs]
    if not a or len(a) != len(b):
        raise ReproError(
            f"constants and unit_costs must be equal-length and non-empty, "
            f"got {len(a)} and {len(b)}"
        )
    for i, x in enumerate(a):
        if x < 0:
            raise ReproError(f"constants[{i}] must be >= 0, got {x}")
    for i, x in enumerate(b):
        if x <= 0:
            raise ReproError(f"unit_costs[{i}] must be > 0, got {x}")

    def cost(part: int, length: int) -> float:
        return a[part] + b[part] * length

    return cost


def _lengths(extents: Sequence[Tuple[int, int]]) -> List[int]:
    return [stop - start for start, stop in extents]


def _extents_from_lengths(lengths: Sequence[int]) -> List[Tuple[int, int]]:
    out, start = [], 0
    for ln in lengths:
        out.append((start, start + ln))
        start += ln
    return out


def _weighted_seed(
    n: int, parts: int, part_cost: PartCost, min_part: int
) -> List[int]:
    """Integer part lengths ~ inverse per-element cost, cost-aware rounding.

    Every part keeps at least ``min_part`` elements; the deterministic
    remainder distribution (cheapest-to-grow takes leftovers, costliest
    sheds excess, ties to the lower index) makes the whole search
    reproducible.
    """
    inv = []
    for i in range(parts):
        u = part_cost(i, 1)
        if u <= 0:
            raise ReproError(f"part {i} has non-positive unit cost {u}")
        inv.append(1.0 / u)
    total_inv = sum(inv)
    raw = [n * w / total_inv for w in inv]
    lengths = [max(min_part, int(f)) for f in raw]
    # Cost-aware top-up / trim to land exactly on n: each leftover
    # element goes to the part whose cost grows least by taking it, and
    # each excess element leaves the currently most expensive part.
    # (Largest-remainder would hand leftovers to high-cost parts and
    # seed the descent inside a plateau it cannot escape.)
    while sum(lengths) < n:
        j = min(
            range(parts), key=lambda i: (part_cost(i, lengths[i] + 1), i)
        )
        lengths[j] += 1
    while sum(lengths) > n:
        j = max(
            (i for i in range(parts) if lengths[i] > min_part),
            key=lambda i: (part_cost(i, lengths[i]), -i),
        )
        lengths[j] -= 1
    return lengths


def balance_extents(
    n: int,
    parts: int,
    part_cost: PartCost,
    initial: Optional[Sequence[Tuple[int, int]]] = None,
    max_rounds: Optional[int] = None,
    min_part: int = 1,
    what: str = "extents",
) -> BalanceResult:
    """Search a 1-D block partition minimizing the max-over-parts cost.

    Parameters
    ----------
    n, parts:
        Elements to split and number of contiguous parts.
    part_cost:
        ``(part_index, part_length) -> modeled seconds`` — the per-rank
        cost model the objective is evaluated on.  Linear models come
        from :func:`linear_cost`; any callable monotone in ``length``
        works (the descent only compares objective values).
    initial:
        Optional partition to score as the starting point (e.g. the
        skewed partition currently charged by the engine);
        ``initial_max`` in the result records its objective.  The search
        itself always starts from the weighted-split seed.
    max_rounds:
        Cap on descent rounds (default ``4 * n + 16`` — far beyond what
        any monotone objective needs; ``converged=False`` flags a hit).
    min_part:
        Smallest part length the search may produce (default 1 — any
        valid partition, which ``reduction="pairwise"`` engines accept
        with bitwise-identical results).  Pass 2 to keep every part
        non-degenerate when balancing a fast-mode contraction axis
        (width-1 BLAS panels may round differently there).
    what:
        Label used in validation error messages.

    Returns a :class:`BalanceResult`; ``result.extents`` passes
    :func:`~repro.comm.partition.check_extents` by construction, as does
    the seed and every candidate the descent committed along the walk.
    The descent accepts only strict improvements, so the result is a
    local optimum of the max-over-parts objective — exact for linear
    costs from a cost-aware seed, and within integer granularity of the
    optimum in practice; a plateau of equal-max partitions can in
    principle pin it above the global optimum for adversarial cost
    functions at very small ``n``.
    """
    check_positive_int(n, "n")
    check_positive_int(parts, "parts")
    check_positive_int(min_part, "min_part")
    if parts * min_part > n:
        raise ReproError(
            f"cannot split {n} elements into {parts} parts of >= {min_part}"
        )
    if max_rounds is None:
        max_rounds = 4 * n + 16

    def objective(lengths: Sequence[int]) -> Tuple[float, List[float]]:
        costs = [part_cost(i, ln) for i, ln in enumerate(lengths)]
        return max(costs), costs

    candidates_checked = 0

    def validated(lengths: Sequence[int]) -> List[Tuple[int, int]]:
        nonlocal candidates_checked
        candidates_checked += 1
        return check_extents(_extents_from_lengths(lengths), n, parts, what=what)

    initial_max = None
    if initial is not None:
        init = check_extents(initial, n, parts, what=f"initial {what}")
        initial_max, _ = objective(_lengths(init))

    lengths = _weighted_seed(n, parts, part_cost, min_part)
    validated(lengths)
    best_max, best_costs = objective(lengths)
    seed_max = best_max

    rounds = 0
    converged = False
    while rounds < max_rounds:
        rounds += 1
        # Try every interior boundary one element in each direction; the
        # move is "shrink one side, grow the other", so only the two
        # adjacent parts' costs change — the rest of the objective is the
        # largest untouched cost, found in O(1) from the top three (at
        # most two indices are excluded per candidate).
        top3 = heapq.nlargest(3, ((c, i) for i, c in enumerate(best_costs)))
        best_move: Optional[Tuple[float, int, int]] = None  # (new_max, boundary, delta)
        for b in range(parts - 1):
            for delta in (-1, +1):  # +1: grow the left part; -1: shrink it
                new_left = lengths[b] + delta
                new_right = lengths[b + 1] - delta
                if new_left < min_part or new_right < min_part:
                    continue
                others = next(
                    (c for c, i in top3 if i != b and i != b + 1), 0.0
                )
                new_max = max(
                    others, part_cost(b, new_left), part_cost(b + 1, new_right)
                )
                if new_max < best_max and (
                    best_move is None or new_max < best_move[0]
                ):
                    best_move = (new_max, b, delta)
        if best_move is None:
            converged = True
            break
        _, b, delta = best_move
        lengths[b] += delta
        lengths[b + 1] -= delta
        # Each accepted candidate must satisfy the engine's partition
        # contract; rejected probes can only differ by one in-range
        # boundary, so validating the committed ones covers the walk.
        validated(lengths)
        best_max, best_costs = objective(lengths)

    extents = validated(lengths)
    if initial_max is None:
        initial_max = seed_max
    return BalanceResult(
        extents=extents,
        modeled_max=best_max,
        modeled_costs=best_costs,
        seed_max=seed_max,
        initial_max=initial_max,
        rounds=rounds,
        candidates_checked=candidates_checked,
        converged=converged,
    )


def analytic_unit_costs(
    specs: Dict[Tuple[int, int], GPUSpec],
    pr: int,
    pc: int,
    axis: str = "row",
    precision: Precision = Precision.DOUBLE,
) -> List[float]:
    """Per-part seconds-per-element from per-rank device throughput.

    The compute phases are memory-bound, so a rank's cost per owned
    element scales with the inverse of its *achieved* bandwidth —
    ``peak_bandwidth * sbgemv_peak_fraction`` at the given precision (the
    SBGEMV/SBGEMM phase dominates; see ``perf/phase_model``).  Ranks in
    the same grid row (column) run concurrently, so a part's unit cost is
    the max over the other grid axis: the slowest device in the row
    gates it.

    ``axis="row"`` returns ``pr`` per-row costs, ``axis="col"`` returns
    ``pc`` per-column costs.  Values are *relative* seconds — the search
    objective only ever compares them, so the absolute scale cancels.
    """
    check_positive_int(pr, "pr")
    check_positive_int(pc, "pc")
    if axis not in ("row", "col"):
        raise ReproError(f"axis must be 'row' or 'col', got {axis!r}")
    prec = Precision.parse(precision)
    missing = [
        (r, c) for r in range(pr) for c in range(pc) if (r, c) not in specs
    ]
    if missing:
        raise ReproError(f"specs missing ranks {missing} of a {pr}x{pc} grid")

    def unit(r: int, c: int) -> float:
        spec = specs[(r, c)]
        return 1.0 / (spec.peak_bandwidth * spec.peak_fraction(prec))

    if axis == "row":
        return [max(unit(r, c) for c in range(pc)) for r in range(pr)]
    return [max(unit(r, c) for r in range(pr)) for c in range(pc)]


def measured_unit_costs(
    report: Dict[Tuple[int, int], float],
    ranges: Sequence[Tuple[int, int]],
    pr: int,
    pc: int,
    axis: str = "row",
) -> List[float]:
    """Per-part seconds-per-element from measured per-rank compute time.

    ``report`` is the engine's
    :meth:`~repro.core.parallel.ParallelFFTMatvec.rank_compute_report`
    (seconds charged on each rank's private clock); ``ranges`` is the
    partition of the searched axis *under which it was measured*
    (``row_ranges`` for ``axis="row"``).  Each rank's unit cost is its
    measured seconds divided by the elements it owned; the part cost is
    the max over the concurrent grid axis.
    """
    if axis not in ("row", "col"):
        raise ReproError(f"axis must be 'row' or 'col', got {axis!r}")
    parts = pr if axis == "row" else pc
    if len(ranges) != parts:
        raise ReproError(
            f"ranges has {len(ranges)} parts, expected {parts} for axis={axis!r}"
        )
    if not report:
        raise ReproError(
            "empty rank report — run the engine with a GPU spec so per-rank "
            "clocks measure compute (ParallelFFTMatvec(spec=...))"
        )
    units: List[float] = []
    for i in range(parts):
        start, stop = ranges[i]
        owned = stop - start
        if owned <= 0:
            raise ReproError(f"ranges[{i}] is empty ({start}, {stop})")
        concurrent = (
            [(i, c) for c in range(pc)] if axis == "row" else [(r, i) for r in range(pr)]
        )
        seconds = []
        for rank in concurrent:
            if rank not in report:
                raise ReproError(f"rank report missing rank {rank}")
            seconds.append(report[rank])
        slowest = max(seconds)
        if slowest <= 0:
            raise ReproError(
                f"rank(s) {concurrent} report zero compute seconds — run at "
                "least one matvec/matmat before rebalancing"
            )
        units.append(slowest / owned)
    return units


def _part_seconds(
    report: Dict[Tuple[int, int], float],
    ranges: Sequence[Tuple[int, int]],
    pr: int,
    pc: int,
    axis: str,
) -> List[Tuple[float, int]]:
    """Per-part ``(max-over-concurrent seconds, owned length)`` pairs."""
    units = measured_unit_costs(report, ranges, pr, pc, axis=axis)
    lengths = _lengths(ranges)
    return [(u * ln, ln) for u, ln in zip(units, lengths)]


def affine_part_costs(
    report_a: Dict[Tuple[int, int], float],
    ranges_a: Sequence[Tuple[int, int]],
    report_b: Dict[Tuple[int, int], float],
    ranges_b: Sequence[Tuple[int, int]],
    pr: int,
    pc: int,
    axis: str = "col",
) -> PartCost:
    """Fit an affine cost model ``cost_i = a_i + b_i * n`` per part.

    Two measurement rounds under *different* partitions of the searched
    axis pin down both coefficients: the slope is the finite difference
    ``b = (c1 - c2) / (n1 - n2)`` and the constant ``a = c1 - b * n1``
    is the part's extent-independent charge (launch overheads, the
    phases batched over the other grid axis).  A single-round linear fit
    folds that constant into the slope and under-corrects — the
    measure→rebalance loop then needs extra rounds to walk the boundary
    the rest of the way; with the affine model one search lands on it.

    Parts whose extent did not change between the rounds (or whose
    finite-difference slope/constant comes out non-positive — possible
    at small extents where the measurement is not affine-monotone) fall
    back to the conservative linear model, using the larger of the two
    rounds' per-element costs so the fallback never undersells a part.

    ``report_a``/``ranges_a`` and ``report_b``/``ranges_b`` are
    :meth:`~repro.core.parallel.ParallelFFTMatvec.rank_compute_report`
    dictionaries with the partitions they were measured under (same
    workload both rounds).  Returns a :data:`PartCost` for
    :func:`balance_extents`.
    """
    pa = _part_seconds(report_a, ranges_a, pr, pc, axis)
    pb = _part_seconds(report_b, ranges_b, pr, pc, axis)
    constants: List[float] = []
    slopes: List[float] = []
    for (c1, n1), (c2, n2) in zip(pa, pb):
        linear = max(c1 / n1, c2 / n2)
        if n1 == n2:
            constants.append(0.0)
            slopes.append(linear)
            continue
        b = (c1 - c2) / (n1 - n2)
        a = c1 - b * n1
        if b <= 0 or a < 0:
            constants.append(0.0)
            slopes.append(linear)
        else:
            constants.append(a)
            slopes.append(b)
    return affine_cost(constants, slopes)


def rebalance_rows(
    engine, max_rounds: Optional[int] = None, min_part: int = 1
) -> BalanceResult:
    """Search new ``row_ranges`` for a live engine from measured clocks.

    Harvests :meth:`~repro.core.parallel.ParallelFFTMatvec.rank_compute_report`,
    derives per-row unit costs under the engine's current partition, and
    searches the sensor axis.  Feed ``result.extents`` back as
    ``row_ranges`` of a new :class:`~repro.core.parallel.ParallelFFTMatvec`
    — the forward matvec/matmat numerics are bitwise-unchanged; only the
    charged wall time moves.
    """
    report = engine.rank_compute_report()
    units = measured_unit_costs(
        report, engine.row_ranges, engine.grid.pr, engine.grid.pc, axis="row"
    )
    return balance_extents(
        engine.nd,
        engine.grid.pr,
        linear_cost(units),
        initial=engine.row_ranges,
        max_rounds=max_rounds,
        min_part=min_part,
        what="row_ranges",
    )


def rebalance_cols(
    engine, max_rounds: Optional[int] = None, min_part: int = 1
) -> BalanceResult:
    """Search new ``col_ranges`` for a live engine from measured clocks.

    The parameter-axis counterpart of :func:`rebalance_rows` (the axis
    whose repartition leaves the *adjoint* pipeline bitwise-unchanged).
    """
    report = engine.rank_compute_report()
    units = measured_unit_costs(
        report, engine.col_ranges, engine.grid.pr, engine.grid.pc, axis="col"
    )
    return balance_extents(
        engine.nm,
        engine.grid.pc,
        linear_cost(units),
        initial=engine.col_ranges,
        max_rounds=max_rounds,
        min_part=min_part,
        what="col_ranges",
    )


@dataclass(frozen=True)
class GridBalanceResult:
    """Outcome of the joint row x col partition search.

    Attributes
    ----------
    row_extents, col_extents:
        The searched 2-D block partition, each axis valid under
        :func:`~repro.comm.partition.check_extents`.
    modeled_max:
        Max-over-ranks ``unit(r, c) * nd_r * nm_c`` of the searched
        partition — the objective the alternation minimizes.
    initial_max:
        The same objective on the starting partition.
    rank_costs:
        Modeled per-rank seconds of the searched partition, keyed
        ``(r, c)``.
    passes:
        Alternating row→col passes executed.
    history:
        Per-pass ``(row BalanceResult, col BalanceResult)`` pairs.
    converged:
        True when a pass changed neither axis (joint fixed point) or
        revisited an earlier state (a +-1 boundary cycle); False only
        when ``max_passes`` ran out first.
    """

    row_extents: List[Tuple[int, int]]
    col_extents: List[Tuple[int, int]]
    modeled_max: float
    initial_max: float
    rank_costs: Dict[Tuple[int, int], float]
    passes: int
    history: List[Tuple[BalanceResult, BalanceResult]]
    converged: bool

    @property
    def improvement(self) -> float:
        """``initial_max / modeled_max`` — the searched joint speedup."""
        return self.initial_max / self.modeled_max if self.modeled_max > 0 else 1.0


def balance_grid(
    nd: int,
    nm: int,
    pr: int,
    pc: int,
    unit_cost: Callable[[int, int], float],
    row_initial: Optional[Sequence[Tuple[int, int]]] = None,
    col_initial: Optional[Sequence[Tuple[int, int]]] = None,
    max_passes: int = 8,
    min_part: int = 1,
) -> GridBalanceResult:
    """Jointly search ``row_ranges`` x ``col_ranges`` on a 2-D cost model.

    Rank ``(r, c)`` owns an ``nd_r x nm_c`` tile and its modeled compute
    is ``unit_cost(r, c) * nd_r * nm_c`` — the memory-bound phases scale
    with the tile area.  The two axes couple through the max: moving a
    row boundary changes which *column* widths matter on the slowest
    row, so 1-D passes in isolation can each look converged while the
    joint objective is not.  This search alternates: balance the rows
    against per-row unit costs ``max_c unit(r, c) * nm_c`` frozen at the
    current columns, then the columns against ``max_r unit(r, c) * nd_r``
    frozen at the *new* rows, repeating until a full pass moves neither
    axis.  Each 1-D pass is a :func:`balance_extents` search, so every
    partition the alternation walks through satisfies the engine's
    contract, and the objective is non-increasing across passes (each
    pass minimizes the same max with the other axis held fixed).

    ``unit_cost(r, c)`` gives rank ``(r, c)``'s seconds per owned cell —
    from device specs (``1 / (bandwidth * peak_fraction)``, the
    heterogeneous-fleet case) or measurements.  ``row_initial`` /
    ``col_initial`` default to the even split :class:`ProcessGrid`
    would produce.  ``min_part=1`` is safe for pairwise-mode engines on
    both axes (see the module docstring).
    """
    check_positive_int(nd, "nd")
    check_positive_int(nm, "nm")
    check_positive_int(pr, "pr")
    check_positive_int(pc, "pc")
    check_positive_int(max_passes, "max_passes")
    check_positive_int(min_part, "min_part")
    if pr * min_part > nd or pc * min_part > nm:
        raise ReproError(
            f"cannot split {nd}x{nm} over a {pr}x{pc} grid with parts >= {min_part}"
        )
    units: Dict[Tuple[int, int], float] = {}
    for r in range(pr):
        for c in range(pc):
            u = float(unit_cost(r, c))
            if u <= 0:
                raise ReproError(f"unit_cost({r}, {c}) must be > 0, got {u}")
            units[(r, c)] = u

    rows = (
        check_extents(row_initial, nd, pr, what="row_initial")
        if row_initial is not None
        else ProcessGrid.split_extent(nd, pr)
    )
    cols = (
        check_extents(col_initial, nm, pc, what="col_initial")
        if col_initial is not None
        else ProcessGrid.split_extent(nm, pc)
    )

    def rank_costs(
        row_ext: Sequence[Tuple[int, int]], col_ext: Sequence[Tuple[int, int]]
    ) -> Dict[Tuple[int, int], float]:
        rl, cl = _lengths(row_ext), _lengths(col_ext)
        return {
            (r, c): units[(r, c)] * rl[r] * cl[c]
            for r in range(pr)
            for c in range(pc)
        }

    initial_max = max(rank_costs(rows, cols).values())
    history: List[Tuple[BalanceResult, BalanceResult]] = []
    seen = {(tuple(map(tuple, rows)), tuple(map(tuple, cols)))}
    converged = False
    for _ in range(max_passes):
        col_len = _lengths(cols)
        row_units = [
            max(units[(r, c)] * col_len[c] for c in range(pc)) for r in range(pr)
        ]
        row_res = balance_extents(
            nd,
            pr,
            linear_cost(row_units),
            initial=rows,
            min_part=min_part,
            what="row_ranges",
        )
        row_len = _lengths(row_res.extents)
        col_units = [
            max(units[(r, c)] * row_len[r] for r in range(pr)) for c in range(pc)
        ]
        col_res = balance_extents(
            nm,
            pc,
            linear_cost(col_units),
            initial=cols,
            min_part=min_part,
            what="col_ranges",
        )
        history.append((row_res, col_res))
        moved = row_res.extents != rows or col_res.extents != cols
        rows, cols = row_res.extents, col_res.extents
        state = (tuple(map(tuple, rows)), tuple(map(tuple, cols)))
        if not moved or state in seen:
            converged = True
            break
        seen.add(state)
    costs = rank_costs(rows, cols)
    return GridBalanceResult(
        row_extents=rows,
        col_extents=cols,
        modeled_max=max(costs.values()),
        initial_max=initial_max,
        rank_costs=costs,
        passes=len(history),
        history=history,
        converged=converged,
    )


@dataclass(frozen=True)
class MeasureRebalanceResult:
    """Outcome of the iterated measure→rebalance loop.

    Attributes
    ----------
    extents:
        The best partition the loop *measured* — the one whose
        max-over-ranks compute seconds (the quantity every collective
        waits on) were smallest.  Near the optimum a linear unit-cost
        model can flap a boundary by +-1 between rounds; returning the
        measured argmin makes the loop immune to ending on the worse
        side of the flap.
    rounds:
        Measurement rounds executed (engine builds + workload runs).
    history:
        Per-round :class:`BalanceResult` objects, in order.
    converged:
        True when a round's search returned the partition it measured
        under, or revisited a previously measured partition (a +-1
        boundary cycle) — either way the charged skew has stopped
        improving.  False only when ``max_rounds`` ran out first.
    """

    extents: List[Tuple[int, int]]
    rounds: int
    history: List[BalanceResult]
    converged: bool


def _rebalance_state_arrays(
    current: Optional[List[Tuple[int, int]]],
    visited: Dict[Tuple[Tuple[int, int], ...], float],
    prev_round: Optional[Tuple[Dict[Tuple[int, int], float], Tuple]],
) -> Dict[str, "np.ndarray"]:
    """Flatten one rebalance round boundary into checkpoint arrays."""
    import numpy as np

    arrays: Dict[str, np.ndarray] = {}
    if current is not None:
        arrays["current"] = np.asarray(current, dtype=np.int64)
    keys = list(visited.keys())
    arrays["visited_keys"] = (
        np.asarray(keys, dtype=np.int64)
        if keys
        else np.zeros((0, 0, 2), dtype=np.int64)
    )
    arrays["visited_vals"] = np.asarray(
        [visited[k] for k in keys], dtype=np.float64
    )
    if prev_round is not None:
        report, under = prev_round
        coords = sorted(report.keys())
        arrays["prev_report_coords"] = np.asarray(coords, dtype=np.int64)
        arrays["prev_report_vals"] = np.asarray(
            [report[c] for c in coords], dtype=np.float64
        )
        arrays["prev_under"] = np.asarray(under, dtype=np.int64)
    return arrays


def _rebalance_state_from_arrays(arrays: Dict[str, "np.ndarray"]):
    """Inverse of :func:`_rebalance_state_arrays`."""
    current = None
    if "current" in arrays:
        current = [tuple(int(v) for v in row) for row in arrays["current"]]
    visited: Dict[Tuple[Tuple[int, int], ...], float] = {}
    keys, vals = arrays["visited_keys"], arrays["visited_vals"]
    for i in range(len(vals)):
        part = tuple(tuple(int(v) for v in row) for row in keys[i])
        visited[part] = float(vals[i])
    prev_round = None
    if "prev_under" in arrays:
        coords = arrays["prev_report_coords"]
        rvals = arrays["prev_report_vals"]
        report = {
            (int(coords[i][0]), int(coords[i][1])): float(rvals[i])
            for i in range(len(rvals))
        }
        under = tuple(
            tuple(int(v) for v in row) for row in arrays["prev_under"]
        )
        prev_round = (report, under)
    return current, visited, prev_round


def measure_rebalance_loop(
    make_engine: Callable[[Optional[Sequence[Tuple[int, int]]]], object],
    run_workload: Callable[[object], object],
    axis: str = "col",
    initial: Optional[Sequence[Tuple[int, int]]] = None,
    max_rounds: int = 12,
    min_part: int = 1,
    rtol: float = 0.02,
    cost_model: str = "linear",
    store=None,
    checkpoint_key: str = "rebalance",
    fingerprint: Optional[str] = None,
    resume: bool = False,
) -> MeasureRebalanceResult:
    """Iterate measure → search until the charged skew converges.

    One :func:`rebalance_rows` / :func:`rebalance_cols` pass assumes the
    per-rank compute is *linear* in the owned extent; the real pipeline
    also carries per-rank constants (launch overheads, the phases batched
    over the other axis), so a single pass under-corrects.  This loop
    closes the feedback: each round builds a fresh engine on the current
    partition (``make_engine(extents)``), charges its private clocks with
    the caller's workload (``run_workload(engine)``), and searches again
    from the new measurements.  The fixed point — the search returning
    the very partition it measured under — is exactly charged-skew
    equality: every grid part's measured seconds per owned element times
    its extent agree, so the max-over-ranks collective charge cannot be
    improved by any single boundary shift.

    Parameters
    ----------
    make_engine:
        Builds a :class:`~repro.core.parallel.ParallelFFTMatvec` (with
        per-rank specs) from a partition of the searched axis; called
        with ``initial`` (possibly None = the engine's balanced default)
        on round 0.
    run_workload:
        Runs the representative workload on the engine (e.g. one blocked
        ``rmatmat``); its return value is ignored — only the per-rank
        clock charges matter.
    axis:
        ``"col"`` searches ``col_ranges`` (parameter axis — the adjoint
        pipeline is bitwise-invariant under it), ``"row"`` searches
        ``row_ranges`` (sensor axis — forward-invariant).
    initial:
        Partition to start from (e.g. a skewed one under study).
    max_rounds:
        Measurement-round cap; ``converged=False`` flags a hit.
    min_part:
        Smallest part length any round may produce (see
        :func:`balance_extents`; 2 guarantees bitwise-reproducible
        numerics across every partition the loop visits).
    rtol:
        Relative convergence tolerance: a round whose search predicts
        less than ``rtol`` improvement over the partition it just
        measured ends the loop (the remaining skew is within the cost
        model's resolution — near the optimum a linear model only flaps
        boundaries by +-1).  0 disables the tolerance and requires an
        exact fixed point or revisit.
    cost_model:
        ``"linear"`` (default) searches each round on the measured
        per-element costs alone.  ``"affine"`` fits
        :func:`affine_part_costs` from the current round and the
        previous one as soon as two rounds under different partitions
        exist, separating per-rank constants from the per-element slope
        — the loop then stops under-correcting and typically converges
        in fewer measurement rounds (round 0 necessarily runs linear).
    store / checkpoint_key / fingerprint / resume:
        With a :class:`~repro.util.checkpoint.CheckpointStore` the loop
        snapshots its search state (current partition, every measured
        partition's wall, the previous round's report for the affine
        fit) after each measurement round — each round costs an engine
        build plus a full workload run, the expensive state here.
        ``resume=True`` restores the latest snapshot (validated against
        ``fingerprint``) and runs only the remaining rounds; ``history``
        then holds post-resume rounds while ``rounds`` counts the total.
    """
    from repro.util.checkpoint import CheckpointError
    if axis not in ("row", "col"):
        raise ReproError(f"axis must be 'row' or 'col', got {axis!r}")
    if cost_model not in ("linear", "affine"):
        raise ReproError(
            f"cost_model must be 'linear' or 'affine', got {cost_model!r}"
        )
    check_positive_int(max_rounds, "max_rounds")
    rebalance = rebalance_cols if axis == "col" else rebalance_rows
    current = list(initial) if initial is not None else None
    history: List[BalanceResult] = []
    # Measured max-over-ranks compute seconds per visited partition —
    # comparable across rounds because every round builds a fresh engine
    # and runs the same workload.
    visited: Dict[Tuple[Tuple[int, int], ...], float] = {}
    converged = False
    prev_round: Optional[Tuple[Dict[Tuple[int, int], float], Tuple]] = None
    rounds_done = 0
    fp = fingerprint if fingerprint is not None else "unkeyed"
    if store is not None and resume and checkpoint_key in store:
        snap = store.load(
            checkpoint_key,
            expect_fingerprint=fingerprint if fingerprint is not None else None,
        )
        if snap.meta.get("axis") != axis or snap.meta.get("cost_model") != cost_model:
            raise CheckpointError(
                f"checkpoint {checkpoint_key!r} ran axis="
                f"{snap.meta.get('axis')!r}/cost_model="
                f"{snap.meta.get('cost_model')!r}, caller wants "
                f"axis={axis!r}/cost_model={cost_model!r}"
            )
        current, visited, prev_round = _rebalance_state_from_arrays(snap.arrays)
        rounds_done = int(snap.meta["rounds_done"])
    for _ in range(rounds_done, max_rounds):
        engine = make_engine(current)
        run_workload(engine)
        measured_under = tuple(
            tuple(e)
            for e in (engine.col_ranges if axis == "col" else engine.row_ranges)
        )
        report = engine.rank_compute_report()
        measured_max = max(report.values())
        prev = visited.get(measured_under)
        if prev is None or measured_max < prev:
            visited[measured_under] = measured_max
        if (
            cost_model == "affine"
            and prev_round is not None
            and prev_round[1] != measured_under
        ):
            cost = affine_part_costs(
                prev_round[0],
                list(prev_round[1]),
                report,
                list(measured_under),
                engine.grid.pr,
                engine.grid.pc,
                axis=axis,
            )
            res = balance_extents(
                engine.nm if axis == "col" else engine.nd,
                engine.grid.pc if axis == "col" else engine.grid.pr,
                cost,
                initial=list(measured_under),
                min_part=min_part,
                what="col_ranges" if axis == "col" else "row_ranges",
            )
        else:
            res = rebalance(engine, min_part=min_part)
        prev_round = (report, measured_under)
        history.append(res)
        searched = tuple(tuple(e) for e in res.extents)
        # res.initial_max scores the partition this round measured under
        # the same unit costs as res.modeled_max, so their ratio is the
        # improvement the search still predicts.
        within_tol = res.modeled_max >= res.initial_max * (1.0 - rtol)
        if searched == measured_under or searched in visited or within_tol:
            # Fixed point, a revisit (+-1 boundary flap near the
            # optimum), or sub-tolerance predicted gain: the charged
            # skew has converged.
            rounds_done += 1
            converged = True
            break
        current = res.extents
        rounds_done += 1
        if store is not None:
            store.save(
                checkpoint_key,
                _rebalance_state_arrays(current, visited, prev_round),
                fingerprint=fp,
                meta={
                    "rounds_done": rounds_done,
                    "axis": axis,
                    "cost_model": cost_model,
                },
            )
    if not visited:
        raise CheckpointError(
            f"rebalance checkpoint {checkpoint_key!r} resumed at round "
            f"{rounds_done} with max_rounds={max_rounds}: no measurements"
        )
    best = min(visited, key=lambda part: (visited[part], part))
    return MeasureRebalanceResult(
        extents=[tuple(e) for e in best],
        rounds=rounds_done,
        history=history,
        converged=converged,
    )


def recovered_skew_fraction(
    skewed_wall: float, rebalanced_wall: float, balanced_wall: float
) -> float:
    """Fraction of the injected skew a searched partition won back.

    ``(skewed - rebalanced) / (skewed - balanced)``: 1.0 means the
    search fully recovered the balanced wall, 0.0 means it bought
    nothing.  Values above 1 (the search beat the nominal balanced
    split, possible on heterogeneous grids) are reported as-is.
    """
    injected = skewed_wall - balanced_wall
    if injected <= 0:
        return 1.0
    return (skewed_wall - rebalanced_wall) / injected
