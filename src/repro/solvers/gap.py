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
   only go one place get infinite regret and are placed first.
2. **Multiple desirability criteria.**  MTHG tries several measures
   (cost, cost per unit size, size, residual-capacity weighted) and
   keeps the best feasible construction.
3. **Improvement.**  Single-item reassignment passes: move any item to a
   cheaper feasible partition until no such move exists.

A plain best-fit-decreasing feasibility fallback runs when every
criterion fails; :class:`GapInfeasibleError` is raised only when that
fails too.
"""

from __future__ import annotations

import heapq
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

    Uses a lazy max-heap over regrets: popped entries are revalidated
    against the current residual capacities (and timing masks) and
    pushed back when stale, which keeps each step O(M log N) instead of
    rescanning all items.
    """
    m, n = cost.shape
    measure = _desirability(cost, sizes, criterion)
    residual = capacities.astype(float).copy()
    assignment = np.full(n, -1, dtype=int)
    # allowed[j, i]: partition i does not violate any constraint between
    # j and an already-placed partner.  Shrinks as placements happen.
    allowed = np.ones((n, m), dtype=bool) if timing is not None else None

    def best_two(j: int):
        """(regret, best_i) for item j, or None if stuck."""
        fits = sizes[j] <= residual + 1e-9
        if allowed is not None:
            fits = fits & allowed[j]
        if static is not None:
            fits = fits & static[j]
        if not fits.any():
            return None
        vals = np.where(fits, measure[:, j], np.inf)
        order = np.argsort(vals, kind="stable")
        best_i = int(order[0])
        if m > 1 and np.isfinite(vals[order[1]]):
            regret = float(vals[order[1]] - vals[best_i])
        else:
            regret = np.inf
        return regret, best_i

    def place(j: int, i: int) -> bool:
        """Commit item j to partition i; False if a partner gets stuck."""
        assignment[j] = i
        residual[i] -= sizes[j]
        return timing is None or timing.restrict_unplaced(allowed, assignment, j, i)

    heap: List[tuple] = []
    for j in range(n):
        info = best_two(j)
        if info is None:
            return None
        regret, best_i = info
        # Negate regret for a max-heap; ties broken by larger size
        # (harder to place) and then index for determinism.
        heapq.heappush(heap, (-regret, -sizes[j], j, best_i))

    placed = 0
    pops = 0
    while heap:
        pops += 1
        if budget is not None and pops % 128 == 0:
            budget.raise_if_exceeded()
        neg_regret, _, j, cached_i = heapq.heappop(heap)
        if assignment[j] >= 0:
            continue
        info = best_two(j)
        if info is None:
            return None
        regret, best_i = info
        cached_ok = sizes[j] <= residual[cached_i] + 1e-9 and (
            allowed is None or allowed[j, cached_i]
        ) and (static is None or static[j, cached_i])
        if regret < -neg_regret - 1e-12 or not cached_ok:
            # Stale entry: reinsert with the refreshed regret.
            heapq.heappush(heap, (-regret, -sizes[j], j, best_i))
            continue
        use_i = best_i if regret != -neg_regret else cached_i
        if not place(j, int(use_i)):
            return None
        placed += 1
    return assignment if placed == n else None


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
    residual = capacities.astype(float).copy()
    assignment = np.full(n, -1, dtype=int)
    allowed = np.ones((n, m), dtype=bool) if timing is not None else None

    if timing is not None:
        degree = np.array([timing.degree(j) for j in range(n)])
        order = sorted(range(n), key=lambda j: (-degree[j], -sizes[j], j))
    else:
        order = sorted(range(n), key=lambda j: (-sizes[j], j))

    for j in order:
        mask = sizes[j] <= residual + 1e-9
        if allowed is not None:
            mask = mask & allowed[j]
        if static is not None:
            mask = mask & static[j]
        fits = np.flatnonzero(mask)
        if fits.size == 0:
            return None
        # Most residual capacity first; break ties by cost then index.
        choice = int(min(fits, key=lambda i: (-residual[i], cost[i, j], i)))
        assignment[j] = choice
        residual[choice] -= sizes[j]
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

    With ``timing``, only moves that keep every constraint satisfied
    (against all other items' current positions) are considered.  The
    assignment stays feasible at every step, so an exhausted ``budget``
    simply stops polishing (no exception).
    """
    m, n = cost.shape
    residual = capacities - np.bincount(assignment, weights=sizes, minlength=m)
    any_improvement = False
    for _ in range(max_passes):
        if budget is not None and budget.check() is not None:
            break
        changed = False
        for j in range(n):
            current = assignment[j]
            fits = sizes[j] <= residual + 1e-9
            fits[current] = True
            if static is not None:
                fits &= static[j]
                fits[current] = True
            if timing is not None and timing.degree(j):
                fits &= timing.conflict_row(assignment, j) == 0
                fits[current] = True  # staying put is always permitted
            vals = np.where(fits, cost[:, j], np.inf)
            target = int(np.argmin(vals))
            if vals[target] < cost[current, j] - 1e-12:
                assignment[j] = target
                residual[current] += sizes[j]
                residual[target] -= sizes[j]
                changed = True
                any_improvement = True
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

    Per pass, compute the exact linear-cost delta of every item exchange
    vectorised, then greedily apply non-overlapping improving exchanges
    (cheapest first).  Exchanges must respect both destination
    capacities, the static mask, and - when ``timing`` is given - the
    pair's constraints against all other items' current positions.
    """
    m, n = cost.shape
    if n < 2:
        return False
    improved = False
    for _ in range(max_passes):
        if budget is not None and budget.check() is not None:
            break
        part = assignment
        loads = np.bincount(part, weights=sizes, minlength=m)
        headroom = (capacities - loads)[part]  # per item, at its partition
        pos_cost = cost[part, :]  # [j1, j2] = cost of item j2 at part[j1]
        own = cost[part, np.arange(n)]
        # delta[j1, j2] = c(p2, j1) + c(p1, j2) - c(p1, j1) - c(p2, j2)
        delta = pos_cost.T + pos_cost - own[:, None] - own[None, :]
        size_diff = sizes[None, :] - sizes[:, None]  # s2 - s1
        ok = (size_diff <= headroom[:, None] + 1e-9) & (
            -size_diff <= headroom[None, :] + 1e-9
        )
        ok &= part[:, None] != part[None, :]
        if static is not None:
            ok &= static[:, part].T & static[:, part]
        ok &= np.triu(delta < -1e-9, k=1)
        candidates = np.argwhere(ok)
        if candidates.size == 0:
            break
        order = np.argsort(delta[candidates[:, 0], candidates[:, 1]], kind="stable")
        touched = np.zeros(n, dtype=bool)
        changed = False
        for j1, j2 in candidates[order]:
            if touched[j1] or touched[j2]:
                continue
            i1, i2 = int(part[j1]), int(part[j2])
            # Recheck capacity against the evolving loads.
            if loads[i1] - sizes[j1] + sizes[j2] > capacities[i1] + 1e-9:
                continue
            if loads[i2] - sizes[j2] + sizes[j1] > capacities[i2] + 1e-9:
                continue
            if timing is not None and not timing.swap_is_feasible(
                part, int(j1), int(j2)
            ):
                continue
            part[j1], part[j2] = i2, i1
            loads[i1] += sizes[j2] - sizes[j1]
            loads[i2] += sizes[j1] - sizes[j2]
            touched[j1] = touched[j2] = True
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
    return m, n
