"""Constraint checking: C1 (capacity), C2 (timing), C3 (GUB).

C3 is structural for :class:`~repro.core.assignment.Assignment` (every
component maps to exactly one partition), so the checkers here cover C1
and C2 and produce machine-readable violation reports used by the
solvers, the harness's final-solution audit, and the test suite.

:class:`TimingIndex` is the one owner of C2 placement checks: given a
:class:`~repro.timing.TimingConstraints` set and the delay matrix, it
answers "how many constraints would component ``j`` violate at each
partition?" (and the move/swap yes-or-no forms of that question) for the
inner GAP, the feasibility repair and merge, the QBP trust region and
:class:`~repro.engine.delta.DeltaCache`, none of which re-derives the
rule for a candidate placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.assignment import Assignment
from repro.core.problem import PartitioningProblem
from repro.timing.constraints import TimingConstraints


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a full feasibility check."""

    capacity_violations: Tuple[Tuple[int, float, float], ...]
    timing_violations: Tuple[Tuple[int, int, float, float], ...]

    @property
    def feasible(self) -> bool:
        """``True`` when no constraint of any kind is violated."""
        return not self.capacity_violations and not self.timing_violations

    def summary(self) -> str:
        """One-line human-readable summary."""
        if self.feasible:
            return "feasible"
        return (
            f"{len(self.capacity_violations)} capacity violation(s), "
            f"{len(self.timing_violations)} timing violation(s)"
        )


def partition_loads(
    assignment: Assignment | Sequence[int], sizes: np.ndarray, num_partitions: int
) -> np.ndarray:
    """Total assigned size per partition (length ``M``)."""
    part = assignment.part if isinstance(assignment, Assignment) else np.asarray(assignment, dtype=int)
    sizes = np.asarray(sizes, dtype=float)
    if part.shape != sizes.shape:
        raise ValueError(
            f"assignment length {part.shape} does not match sizes {sizes.shape}"
        )
    return np.bincount(part, weights=sizes, minlength=num_partitions)


def capacity_violations(
    assignment: Assignment | Sequence[int],
    sizes: np.ndarray,
    capacities: np.ndarray,
) -> List[Tuple[int, float, float]]:
    """C1 violations: ``(partition, load, capacity)`` for overloaded partitions."""
    capacities = np.asarray(capacities, dtype=float)
    loads = partition_loads(assignment, sizes, capacities.size)
    out = []
    for i in np.flatnonzero(loads > capacities + 1e-9):
        out.append((int(i), float(loads[i]), float(capacities[i])))
    return out


def check_feasibility(
    problem: PartitioningProblem, assignment: Assignment | Sequence[int]
) -> FeasibilityReport:
    """Full C1+C2 check of ``assignment`` against ``problem``."""
    part = problem.validate_assignment_shape(
        assignment.part if isinstance(assignment, Assignment) else assignment
    )
    cap = capacity_violations(part, problem.sizes(), problem.capacities())
    tim = problem.timing.violations(part, problem.delay_matrix)
    return FeasibilityReport(
        capacity_violations=tuple(cap), timing_violations=tuple(tim)
    )


class TimingIndex:
    """The one place C2 is evaluated for a candidate placement.

    For each component ``j`` this stores the constraints in which ``j``
    participates, split into outgoing (``j`` is the source, the budget
    bounds ``D[A(j), A(k)]``) and incoming (``j`` is the target).  The
    lists serve the early-exit move/swap checks.  The vectorised queries
    (:meth:`conflict_row`, :meth:`conflict_rows`,
    :meth:`restrict_unplaced`) use the same constraints as one CSR
    array of incidences grouped by component: each constraint appears
    once under its source and once under its target.
    """

    def __init__(self, constraints: TimingConstraints, delay_matrix: np.ndarray) -> None:
        self.delay = np.asarray(delay_matrix, dtype=float)
        n = constraints.num_components
        m = self.delay.shape[0]
        self.num_components = n
        self._out: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        self._in: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        for j1, j2, budget in constraints.items():
            self._out[j1].append((j2, budget))
            self._in[j2].append((j1, budget))
        # Incidence e of component j has partner k, budget b and a side:
        # 0 when j is the source, M when j is the target.  Row
        # side + part[k] of _table is then the delay j would see from
        # each candidate partition (D[:, part[k]] or D[part[k], :]), and
        # row (M - side) + i the delay k would see from each partition
        # once j sits at i.
        src, dst, budget = constraints.arrays()
        mover = np.concatenate((src, dst))
        order = np.argsort(mover, kind="stable")
        self._table = np.vstack((self.delay.T, self.delay))
        self._partner = np.concatenate((dst, src))[order]
        self._partner.setflags(write=False)  # partners() hands out views
        self._side = np.repeat([0, m], src.size)[order]
        self._budget = np.concatenate((budget, budget))[order, None]
        self._ptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(mover, minlength=n), out=self._ptr[1:])
        self._offsets = self._ptr.tolist()  # list: faster scalar slicing

    def degree(self, j: int) -> int:
        """Number of constraints touching component ``j``."""
        return len(self._out[j]) + len(self._in[j])

    def constrained_components(self) -> List[int]:
        """Components that participate in at least one constraint."""
        return [j for j in range(self.num_components) if self.degree(j) > 0]

    def partners(self, j: int) -> np.ndarray:
        """Components sharing a constraint with ``j``.

        A component constrained with ``j`` in both directions appears
        twice.
        """
        return self._partner[self._offsets[j] : self._offsets[j + 1]]

    # ------------------------------------------------------------------
    def move_is_feasible(
        self, part: np.ndarray, j: int, new_i: int, *, ignore: int | None = None
    ) -> bool:
        """C2 check for moving component ``j`` to partition ``new_i``.

        ``ignore`` (used by swap checking) names one counterpart
        component whose constraints are validated elsewhere.
        """
        delay = self.delay
        # Self-constraints are rejected at construction, so k != j always.
        for k, budget in self._out[j]:
            if k != ignore and delay[new_i, part[k]] > budget:
                return False
        for k, budget in self._in[j]:
            if k != ignore and delay[part[k], new_i] > budget:
                return False
        return True

    def swap_is_feasible(self, part: np.ndarray, j1: int, j2: int) -> bool:
        """C2 check for exchanging the partitions of ``j1`` and ``j2``."""
        i1, i2 = int(part[j1]), int(part[j2])
        if i1 == i2:
            return True
        # Constraints against third components, with each other excluded.
        if not self.move_is_feasible(part, j1, i2, ignore=j2):
            return False
        if not self.move_is_feasible(part, j2, i1, ignore=j1):
            return False
        # The mutual constraints, evaluated at the post-swap locations.
        delay = self.delay
        for k, budget in self._out[j1]:
            if k == j2 and delay[i2, i1] > budget:
                return False
        for k, budget in self._in[j1]:
            if k == j2 and delay[i1, i2] > budget:
                return False
        return True

    def conflict_row(self, part: np.ndarray, j: int) -> np.ndarray:
        """``(M,)`` count of the constraints ``j`` would violate at each partition.

        Every other component stays at ``part``; ``part[j]`` is ignored.
        """
        e = slice(self._offsets[j], self._offsets[j + 1])
        seen = self._table[part[self._partner[e]] + self._side[e]]
        return (seen > self._budget[e]).sum(axis=0)

    def conflict_rows(self, part: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """``(R, M)`` :meth:`conflict_row` block for ``rows`` (default: all).

        One gather over the rows' incidences, then per-row sums as
        differences of a running integer count, so the result equals the
        per-row loop exactly.
        """
        if rows is None:
            e, counts, ends = slice(None), np.diff(self._ptr), self._ptr[1:]
        else:
            rows = np.asarray(rows, dtype=np.intp)
            starts = self._ptr[rows]
            counts = self._ptr[rows + 1] - starts
            ends = np.cumsum(counts)
            # Incidence ids of every row, concatenated in row order.
            e = np.arange(ends[-1] if ends.size else 0) + np.repeat(
                starts - (ends - counts), counts
            )
        violated = self._table[np.asarray(part)[self._partner[e]] + self._side[e]] > self._budget[e]
        running = np.zeros((violated.shape[0] + 1, violated.shape[1]), dtype=np.int32)
        np.cumsum(violated, axis=0, out=running[1:])
        return running[ends] - running[ends - counts]

    def restrict_unplaced(
        self, allowed: np.ndarray, assignment: np.ndarray, j: int, i: int
    ) -> bool:
        """Narrow the ``allowed`` rows of ``j``'s unplaced partners once ``j`` sits at ``i``.

        ``allowed`` is the item-major ``(N, M)`` mask of partitions each
        item may still take; ``assignment`` marks unplaced items with a
        negative entry.  Returns ``False`` when some partner is left
        with no partition.
        """
        e = np.arange(self._offsets[j], self._offsets[j + 1])
        e = e[assignment[self._partner[e]] < 0]
        ks = self._partner[e]
        fits = self._table[self.delay.shape[0] - self._side[e] + i] <= self._budget[e]
        # ufunc.at, not allowed[ks] &= fits: a partner constrained in
        # both directions appears twice and must keep both masks.
        np.logical_and.at(allowed, ks, fits)
        return bool(allowed[ks].any(axis=1).all())


@dataclass
class CapacityTracker:
    """Mutable per-partition load tracker used by move-based solvers.

    Keeps ``loads`` synchronised with an evolving assignment so that
    capacity feasibility of a candidate move is an O(1) question.
    """

    sizes: np.ndarray
    capacities: np.ndarray
    loads: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.sizes = np.asarray(self.sizes, dtype=float)
        self.capacities = np.asarray(self.capacities, dtype=float)
        self.loads = np.zeros_like(self.capacities)

    @classmethod
    def for_assignment(
        cls, assignment: Assignment, sizes: np.ndarray, capacities: np.ndarray
    ) -> "CapacityTracker":
        tracker = cls(sizes, capacities)
        tracker.loads = partition_loads(assignment, tracker.sizes, tracker.capacities.size)
        return tracker

    def move_fits(self, j: int, new_i: int) -> bool:
        """Would moving component ``j`` into ``new_i`` respect C1 there?"""
        return self.loads[new_i] + self.sizes[j] <= self.capacities[new_i] + 1e-9

    def swap_fits(self, j1: int, i1: int, j2: int, i2: int) -> bool:
        """Would exchanging ``j1``@``i1`` and ``j2``@``i2`` respect C1?"""
        if i1 == i2:
            return True
        s1, s2 = self.sizes[j1], self.sizes[j2]
        fits1 = self.loads[i1] - s1 + s2 <= self.capacities[i1] + 1e-9
        fits2 = self.loads[i2] - s2 + s1 <= self.capacities[i2] + 1e-9
        return bool(fits1 and fits2)

    def apply_move(self, j: int, old_i: int, new_i: int) -> None:
        """Record that component ``j`` moved from ``old_i`` to ``new_i``."""
        self.loads[old_i] -= self.sizes[j]
        self.loads[new_i] += self.sizes[j]
