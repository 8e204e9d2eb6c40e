"""Generalized Assignment Problem heuristic (Martello & Toth's MTHG).

The generalized Burkard iteration solves, twice per iteration, the GAP::

    minimize    sum_{i,j} c[i, j] * x[i, j]
    subject to  sum_j s[j] * x[i, j] <= cap[i]      (capacity)
                sum_i x[i, j] = 1                   (GUB)

This module reimplements the heuristic the paper cites (Martello & Toth,
*Knapsack Problems*, 1990, Chapter 7 - MTHG):

1. **Regret-ordered construction.**  For a desirability measure
   ``f(i, j)``, repeatedly pick the unassigned item whose regret -
   the gap between its best and second-best *feasible* partition - is
   largest, and place it in its best feasible partition.  Items that can
   only go one place get infinite regret and are placed first.  The
   measure is fixed for a construction, so each item's partitions are
   sorted by it once; finding an item's best two feasible partitions is
   then a short walk down that order, past the ones that no longer fit.
2. **Multiple desirability criteria.**  MTHG tries several measures
   (cost, cost per unit size, size, cost times size) and keeps the best
   feasible construction.  :func:`solve_gap` tries all four by default;
   the QBP iteration passes its own shorter list.
3. **Improvement.**  Single-item reassignment passes (move any item to
   its cheapest feasible partition while that is cheaper), then
   pairwise-exchange passes (swap the partitions of two items when that
   lowers the cost and both capacities hold), each until a pass changes
   nothing or ``max_improvement_passes`` is reached.

A plain best-fit-decreasing feasibility fallback runs when every
criterion fails; :class:`GapInfeasibleError` is raised only when that
fails too.  Costs must be finite.

The per-item loops run over Python lists rather than numpy calls on
length-``M`` arrays, whose call overhead would dominate; every phase
returns exactly what a per-item numpy formulation of the same rules
returns (ties included), which the tests check against such an oracle.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.obs.telemetry import resolve as resolve_telemetry
from repro.runtime.budget import Budget

DEFAULT_CRITERIA = ("cost", "cost_per_size", "size", "cost_times_size")
"""Desirability criteria tried, in order, by :func:`solve_gap`."""


class GapInfeasibleError(RuntimeError):
    """No capacity-feasible assignment was found by any strategy."""


@dataclass(frozen=True)
class GapResult:
    """Outcome of one GAP solve."""

    assignment: np.ndarray
    cost: float
    criterion: str
    improved: bool

    @property
    def num_items(self) -> int:
        return int(self.assignment.size)


def solve_gap(
    cost: np.ndarray,
    sizes: Sequence[float],
    capacities: Sequence[float],
    *,
    criteria: Sequence[str] = DEFAULT_CRITERIA,
    improve: bool = True,
    max_improvement_passes: int = 4,
    timing=None,
    allowed_mask=None,
    timing_in_construction: bool = True,
    budget: Optional[Budget] = None,
) -> GapResult:
    """Solve a min-cost GAP heuristically with MTHG.

    Parameters
    ----------
    cost:
        ``M x N`` cost matrix ``c[i, j]`` (partition-major, matching the
        paper's ``P``).
    sizes:
        Item sizes (length ``N``).
    capacities:
        Partition capacities (length ``M``).
    criteria:
        Desirability measures to try; see :data:`DEFAULT_CRITERIA`.
    improve:
        Run the single-item improvement phase after construction.
    timing:
        Optional :class:`repro.core.constraints.TimingIndex`.  This is the
        paper's Section 4.3 generalization "to handle additional Capacity
        Constraints *and Timing Constraints*": during construction each
        placement dynamically forbids, for every still-unplaced constraint
        partner, the partitions that would violate the pair's budget - so
        a completed construction satisfies C2 outright (for every
        constrained pair, whichever item lands second respected the
        first).  The improvement phase then only considers moves that
        stay violation-free.
    budget:
        Optional :class:`repro.runtime.budget.Budget`.  Checked at each
        construction/improvement boundary; an exhausted budget raises
        :class:`repro.runtime.budget.BudgetExceededError` so the calling
        solver can stop with its last consistent incumbent.

    Returns
    -------
    GapResult
        Best feasible assignment found over all criteria.

    Raises
    ------
    GapInfeasibleError
        If no criterion nor the feasibility fallback produced a full
        assignment.
    """
    cost = np.asarray(cost, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    capacities = np.asarray(capacities, dtype=float)
    m, n = _validate(cost, sizes, capacities)
    static = None
    if allowed_mask is not None:
        static = np.asarray(allowed_mask, dtype=bool)
        if static.shape != (m, n):
            raise ValueError(
                f"allowed_mask must have shape ({m}, {n}), got {static.shape}"
            )
        static = static.T.copy()  # item-major internally

    tel = resolve_telemetry(None)
    with tel.span("gap.mthg", items=n, partitions=m) as gap_span:
        best: Optional[np.ndarray] = None
        best_cost = np.inf
        best_criterion = "none"
        construction_timing = timing if timing_in_construction else None
        for criterion in criteria:
            if budget is not None:
                budget.raise_if_exceeded()
            assignment = _construct(
                cost, sizes, capacities, criterion, construction_timing, static, budget
            )
            if assignment is None:
                continue
            value = float(cost[assignment, np.arange(n)].sum())
            if value < best_cost:
                best, best_cost, best_criterion = assignment, value, criterion

        if best is None:
            if budget is not None:
                budget.raise_if_exceeded()
            assignment = _best_fit_decreasing(
                cost, sizes, capacities, construction_timing, static
            )
            if assignment is None:
                raise GapInfeasibleError(
                    "no feasible GAP assignment found (constraints too tight)"
                )
            best = assignment
            best_cost = float(cost[best, np.arange(n)].sum())
            best_criterion = "best_fit_fallback"

        improved = False
        if improve:
            improved = _improve(
                best, cost, sizes, capacities, max_improvement_passes, timing, static,
                budget,
            )
            improved |= _exchange_improve(
                best, cost, sizes, capacities, max_improvement_passes, timing, static,
                budget,
            )
            best_cost = float(cost[best, np.arange(n)].sum())
        gap_span.set("criterion", best_criterion)
    return GapResult(
        assignment=best, cost=best_cost, criterion=best_criterion, improved=improved
    )


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def _desirability(cost: np.ndarray, sizes: np.ndarray, criterion: str) -> np.ndarray:
    """The ``M x N`` measure minimised when choosing an item's partition."""
    if criterion == "cost":
        return cost
    if criterion == "cost_per_size":
        return cost / np.maximum(sizes, 1e-12)[None, :]
    if criterion == "size":
        # Pure feasibility ordering: every partition equally desirable,
        # so regret ordering degenerates to "most constrained first".
        return np.zeros_like(cost)
    if criterion == "cost_times_size":
        return cost * np.maximum(sizes, 1e-12)[None, :]
    raise ValueError(f"unknown GAP criterion {criterion!r}")


def _construct(
    cost: np.ndarray,
    sizes: np.ndarray,
    capacities: np.ndarray,
    criterion: str,
    timing=None,
    static=None,
    budget: Optional[Budget] = None,
) -> Optional[np.ndarray]:
    """Regret-ordered MTHG construction; ``None`` when it dead-ends.

    The measure is fixed for the whole construction, so each item's
    partitions are ranked once (stable sort: ties go to the lower
    index) and an item's best two fitting partitions are the first two
    fits along that ranking.  A lazy max-heap over regrets picks the
    next item: popped entries are revalidated against the current
    residual capacities (and timing masks) and pushed back when stale,
    which keeps each step O(M log N) instead of rescanning all items.
    """
    m, n = cost.shape
    measure = _desirability(cost, sizes, criterion)
    ranked = np.argsort(measure, axis=0, kind="stable").T.tolist()
    values = measure.T.tolist()
    size = sizes.tolist()
    residual = capacities.astype(float).tolist()
    static_rows = static.tolist() if static is not None else None
    assignment = np.full(n, -1, dtype=int)
    # allowed[j, i]: partition i does not violate any constraint between
    # j and an already-placed partner.  Shrinks as placements happen.
    allowed = np.ones((n, m), dtype=bool) if timing is not None else None

    def best_two(j: int):
        """(regret, best_i) for item j, or None if stuck."""
        s = size[j]
        gate = static_rows[j] if static_rows is not None else None
        live = allowed[j].tolist() if allowed is not None else None
        best_i = -1
        for i in ranked[j]:
            if not s <= residual[i] + 1e-9:
                continue
            if gate is not None and not gate[i]:
                continue
            if live is not None and not live[i]:
                continue
            if best_i < 0:
                best_i = i
                continue
            second = values[j][i]
            if math.isfinite(second):
                return second - values[j][best_i], best_i
            return math.inf, best_i
        if best_i < 0:
            return None
        return math.inf, best_i

    def place(j: int, i: int) -> bool:
        """Commit item j to partition i; False if a partner gets stuck."""
        assignment[j] = i
        residual[i] -= size[j]
        return timing is None or timing.restrict_unplaced(allowed, assignment, j, i)

    heap: List[tuple] = []
    for j in range(n):
        info = best_two(j)
        if info is None:
            return None
        regret, best_i = info
        # Negate regret for a max-heap; ties broken by larger size
        # (harder to place) and then index for determinism.  The heap
        # holds exactly one entry per unplaced item, so keys are unique
        # and the pop order does not depend on how the heap was built.
        heap.append((-regret, -size[j], j, best_i))
    heapq.heapify(heap)

    pops = 0
    while heap:
        pops += 1
        if budget is not None and pops % 128 == 0:
            budget.raise_if_exceeded()
        neg_regret, _, j, cached_i = heapq.heappop(heap)
        info = best_two(j)
        if info is None:
            return None
        regret, best_i = info
        cached_ok = size[j] <= residual[cached_i] + 1e-9 and (
            allowed is None or allowed[j, cached_i]
        ) and (static_rows is None or static_rows[j][cached_i])
        if regret < -neg_regret - 1e-12 or not cached_ok:
            # Stale entry: reinsert with the refreshed regret.
            heapq.heappush(heap, (-regret, -size[j], j, best_i))
            continue
        use_i = best_i if regret != -neg_regret else cached_i
        if not place(j, use_i):
            return None
    return assignment


def _best_fit_decreasing(
    cost: np.ndarray,
    sizes: np.ndarray,
    capacities: np.ndarray,
    timing=None,
    static=None,
) -> Optional[np.ndarray]:
    """Feasibility-first fallback: largest items into the emptiest fit.

    With ``timing``, placements additionally respect constraints against
    already-placed partners (most-constrained-first ordering by timing
    degree, then size).
    """
    m, n = cost.shape
    size = sizes.tolist()
    residual = capacities.astype(float).tolist()
    costs = cost.T.tolist()
    static_rows = static.tolist() if static is not None else None
    assignment = np.full(n, -1, dtype=int)
    allowed = np.ones((n, m), dtype=bool) if timing is not None else None

    if timing is not None:
        degree = [timing.degree(j) for j in range(n)]
        order = sorted(range(n), key=lambda j: (-degree[j], -size[j], j))
    else:
        order = sorted(range(n), key=lambda j: (-size[j], j))

    for j in order:
        s = size[j]
        gate = static_rows[j] if static_rows is not None else None
        live = allowed[j].tolist() if allowed is not None else None
        # Most residual capacity first; break ties by cost then index.
        choice, best_key = -1, None
        for i in range(m):
            if not s <= residual[i] + 1e-9:
                continue
            if (gate is not None and not gate[i]) or (live is not None and not live[i]):
                continue
            key = (-residual[i], costs[j][i])
            if best_key is None or key < best_key:
                choice, best_key = i, key
        if choice < 0:
            return None
        assignment[j] = choice
        residual[choice] -= s
        if timing is not None and not timing.restrict_unplaced(
            allowed, assignment, j, choice
        ):
            return None
    return assignment


# ----------------------------------------------------------------------
# Improvement
# ----------------------------------------------------------------------
def _improve(
    assignment: np.ndarray,
    cost: np.ndarray,
    sizes: np.ndarray,
    capacities: np.ndarray,
    max_passes: int,
    timing=None,
    static=None,
    budget: Optional[Budget] = None,
) -> bool:
    """Single-item reassignment descent (in place); True if improved.

    Each item moves to its cheapest fitting partition (the lowest index
    among equal costs) when that beats its current one by more than
    ``1e-12``.  Walking the item's partitions in cost order, the first
    fit is that target, and the walk stops at the first partition that
    would not be an improvement.  With ``timing``, only moves that keep
    every constraint satisfied (against all other items' current
    positions) are considered.  The assignment stays feasible at every
    step, so an exhausted ``budget`` simply stops polishing (no
    exception).
    """
    m, n = cost.shape
    residual = (
        capacities - np.bincount(assignment, weights=sizes, minlength=m)
    ).tolist()
    ranked = np.argsort(cost, axis=0, kind="stable").T.tolist()
    costs = cost.T.tolist()
    size = sizes.tolist()
    part = assignment.tolist()
    static_rows = static.tolist() if static is not None else None
    constrained = (
        [timing.degree(j) > 0 for j in range(n)] if timing is not None else [False] * n
    )
    any_improvement = False
    for _ in range(max_passes):
        if budget is not None and budget.check() is not None:
            break
        changed = False
        for j in range(n):
            current = part[j]
            row = costs[j]
            bar = row[current] - 1e-12
            s = size[j]
            gate = static_rows[j] if static_rows is not None else None
            conflicts = None
            for i in ranked[j]:
                if not row[i] < bar:
                    break  # no cheaper partition left (never passes current)
                if not s <= residual[i] + 1e-9:
                    continue
                if gate is not None and not gate[i]:
                    continue
                if constrained[j]:
                    if conflicts is None:
                        conflicts = timing.conflict_row(assignment, j).tolist()
                    if conflicts[i]:
                        continue
                part[j] = i
                assignment[j] = i
                residual[current] += s
                residual[i] -= s
                changed = True
                any_improvement = True
                break
        if not changed:
            break
    return any_improvement


def _exchange_improve(
    assignment: np.ndarray,
    cost: np.ndarray,
    sizes: np.ndarray,
    capacities: np.ndarray,
    max_passes: int,
    timing=None,
    static=None,
    budget: Optional[Budget] = None,
) -> bool:
    """Pairwise exchange descent (Martello-Toth improvement, in place).

    Per pass, find every improving exchange of items ``j1 < j2`` in
    different partitions - linear-cost delta
    ``((c(p2, j1) + c(p1, j2)) - c(p1, j1)) - c(p2, j2)`` below ``-1e-9``
    - then greedily apply non-overlapping ones, cheapest first (ties in
    ``(j1, j2)`` order).  Exchanges must respect both destination
    capacities, the static mask, and - when ``timing`` is given - the
    pair's constraints against all other items' current positions.

    An exchange improves only if one of its items gains by moving to the
    other's partition, so only the rows of such *movers* are screened,
    against every item.  The screen and the mover test allow ``slack``,
    more than the rounding error of the three-operation delta, and the
    pairs that pass are recomputed with the exact expression above.
    """
    m, n = cost.shape
    if n < 2:
        return False
    cost_t = np.ascontiguousarray(cost.T)  # [j, i]: gathers rows, not columns
    items = np.arange(n)
    # One evaluation of a delta errs by under 4.5 eps max|c|, and the
    # screen compares two evaluations in different orders: under 9.
    slack = 16 * np.finfo(float).eps * float(np.abs(cost).max())
    size = sizes.tolist()
    caps = capacities.tolist()
    improved = False
    for _ in range(max_passes):
        if budget is not None and budget.check() is not None:
            break
        part = assignment
        loads = np.bincount(part, weights=sizes, minlength=m)
        own = cost_t[items, part]
        gain = cost - own  # [i, j]: cost change of moving j to i
        gain[part, items] = np.inf
        is_mover = gain.min(axis=0) < slack
        movers = np.flatnonzero(is_mover)
        # screen[r, k] ~ delta of exchanging movers[r] with k
        screen = cost_t[movers][:, part]
        screen += cost[part[movers], :]
        screen -= own[movers, None]
        screen -= own[None, :]
        r, k = np.divmod(np.flatnonzero(screen < slack - 1e-9), n)
        s = movers[r]
        once = (s < k) | ~is_mover[k]  # a pair of movers shows up twice
        j1, j2 = np.minimum(s, k)[once], np.maximum(s, k)[once]
        p1, p2 = part[j1], part[j2]
        delta = ((cost[p2, j1] + cost[p1, j2]) - own[j1]) - own[j2]
        headroom = (capacities - loads)[part]  # per item, at its partition
        size_diff = sizes[j2] - sizes[j1]
        ok = (delta < -1e-9) & (p1 != p2)
        ok &= (size_diff <= headroom[j1] + 1e-9) & (-size_diff <= headroom[j2] + 1e-9)
        if static is not None:
            ok &= static[j1, p2] & static[j2, p1]
        if not ok.any():
            break
        j1, j2, p1, p2, delta = j1[ok], j2[ok], p1[ok], p2[ok], delta[ok]
        order = np.lexsort((j2, j1, delta))
        load = loads.tolist()
        touched = [False] * n
        changed = False
        for a, b, i1, i2 in zip(
            j1[order].tolist(), j2[order].tolist(),
            p1[order].tolist(), p2[order].tolist(),
        ):
            if touched[a] or touched[b]:
                continue
            sa, sb = size[a], size[b]
            # Recheck capacity against the evolving loads.
            if load[i1] - sa + sb > caps[i1] + 1e-9:
                continue
            if load[i2] - sb + sa > caps[i2] + 1e-9:
                continue
            if timing is not None and not timing.swap_is_feasible(part, a, b):
                continue
            part[a], part[b] = i2, i1
            load[i1] += sb - sa
            load[i2] += sa - sb
            touched[a] = touched[b] = True
            changed = True
            improved = True
        if not changed:
            break
    return improved


def _validate(cost: np.ndarray, sizes: np.ndarray, capacities: np.ndarray):
    if cost.ndim != 2:
        raise ValueError(f"cost must be 2-dimensional, got ndim={cost.ndim}")
    m, n = cost.shape
    if sizes.shape != (n,):
        raise ValueError(f"sizes must have length {n}, got shape {sizes.shape}")
    if capacities.shape != (m,):
        raise ValueError(
            f"capacities must have length {m}, got shape {capacities.shape}"
        )
    if (sizes < 0).any():
        raise ValueError("sizes must be non-negative")
    if (capacities < 0).any():
        raise ValueError("capacities must be non-negative")
    if not np.isfinite(cost).all():
        # A non-finite cost breaks the regret order: an item whose
        # fitting partitions all cost inf (or NaN) would rank a partition
        # it does not fit first, and the construction would never end.
        raise ValueError("cost must be finite")
    return m, n
