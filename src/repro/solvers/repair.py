"""Feasibility repair: a min-conflicts finisher for the bootstrap.

The paper obtains initial feasible solutions by running QBP with
``B = 0`` "for a few iterations".  The zero-``B`` Burkard iteration
drives violation counts down globally but - being a global reassignment
heuristic - can stall with a small residue of violated constraints.
:func:`repair_feasibility` finishes the job with min-conflicts local
search: repeatedly relocate a violation-participating component to the
capacity-feasible partition that minimises its violated-constraint
count, with seeded random restarts out of local minima.

This composes with (not replaces) the paper's bootstrap; see
:func:`repro.solvers.qbp.bootstrap_initial_solution`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.assignment import Assignment
from repro.core.constraints import TimingIndex, partition_loads
from repro.core.problem import PartitioningProblem
from repro.obs.telemetry import resolve as resolve_telemetry
from repro.utils.rng import RandomSource, ensure_rng


def repair_feasibility(
    problem: PartitioningProblem,
    assignment: Assignment,
    *,
    max_moves: int = 20000,
    seed: RandomSource = None,
    evaluator=None,
) -> Optional[Assignment]:
    """Try to drive ``assignment`` to zero timing violations.

    The input must be capacity-feasible; every move keeps it so.
    Returns a fully feasible assignment, or ``None`` when the move
    budget is exhausted first.

    When an :class:`~repro.core.objective.ObjectiveEvaluator` is passed
    as ``evaluator``, conflict-count ties between candidate moves are
    broken by objective delta, so the repaired solution stays close in
    cost to the input (used by the QBP iterate projection).
    """
    part = problem.validate_assignment_shape(assignment.part).copy()
    if not problem.has_timing:
        return Assignment(part, problem.num_partitions)

    rng = ensure_rng(seed)
    index = TimingIndex(problem.timing, problem.delay_matrix)
    sizes = problem.sizes()
    capacities = problem.capacities()
    m = problem.num_partitions
    loads = partition_loads(part, sizes, m)
    delay = problem.delay_matrix
    t_src, t_dst, t_budget = problem.timing.arrays()

    def violating_components() -> list[int]:
        """Components participating in any violated constraint (vectorised)."""
        violated = delay[part[t_src], part[t_dst]] > t_budget
        if not violated.any():
            return []
        hot = np.union1d(t_src[violated], t_dst[violated])
        return hot.tolist()

    initial_violated = (
        int((delay[part[t_src], part[t_dst]] > t_budget).sum()) if t_src.size else 0
    )
    hot = violating_components()
    moves = 0
    stall = 0
    while hot and moves < max_moves:
        j = hot[int(rng.integers(0, len(hot)))]
        here = int(part[j])
        row = index.conflict_row(part, j)
        current = int(row[here])
        if current == 0:
            # Stale entry (a partner's move resolved it); drop and go on.
            hot.remove(j)
            continue
        best_i, best_c = here, current
        best_delta = 0.0
        fits = loads + sizes[j] <= capacities + 1e-9
        order = rng.permutation(m)
        for i in order:
            i = int(i)
            if i == here or not fits[i]:
                continue
            c = int(row[i])
            if c > best_c:
                continue
            delta = (
                float(evaluator.move_delta(part, j, i)) if evaluator is not None else 0.0
            )
            if c < best_c or (evaluator is not None and delta < best_delta - 1e-12):
                best_i, best_c, best_delta = i, c, delta
        if best_i != here:
            part[j] = best_i
            loads[here] -= sizes[j]
            loads[best_i] += sizes[j]
            stall = 0
        elif _swap_step(j, part, loads, sizes, capacities, index, rng):
            stall = 0
        else:
            stall += 1
            if stall > 20:
                # Local minimum: random capacity-feasible kick of j.
                fits = np.flatnonzero(loads + sizes[j] <= capacities + 1e-9)
                fits = fits[fits != here]
                if fits.size:
                    target = int(rng.choice(fits))
                    part[j] = target
                    loads[here] -= sizes[j]
                    loads[target] += sizes[j]
                stall = 0
        moves += 1
        if moves % 64 == 0 or best_c == 0:
            hot = violating_components()

    if violating_components():
        return None
    tel = resolve_telemetry(None)
    if tel.enabled and initial_violated:
        tel.counter("timing.violations_repaired").inc(initial_violated)
    return Assignment(part, m)


def feasible_merge(
    problem: PartitioningProblem,
    base: Assignment,
    target: Assignment,
    *,
    evaluator=None,
    passes: int = 3,
    index: Optional[TimingIndex] = None,
) -> Assignment:
    """Walk from feasible ``base`` toward ``target`` without losing feasibility.

    Used by the QBP solver to project a (typically slightly infeasible)
    GAP iterate onto the feasible region: starting from the incumbent
    feasible solution, every component on which the two differ is moved
    to its target partition *if* the move keeps C1 and C2 satisfied.
    Blocked moves are retried on later passes (an earlier move can
    unblock them).  The result is feasible by construction and adopts as
    much of the target's structure as constraints allow.

    When ``evaluator`` is given, moves are attempted in ascending
    objective-delta order each pass, so the cheapest differences land
    first.
    """
    part = problem.validate_assignment_shape(base.part).copy()
    target_part = problem.validate_assignment_shape(target.part)
    if index is None:
        index = TimingIndex(problem.timing, problem.delay_matrix)
    sizes = problem.sizes()
    capacities = problem.capacities()
    m = problem.num_partitions
    loads = partition_loads(part, sizes, m)

    for _ in range(max(1, passes)):
        pending = np.flatnonzero(part != target_part)
        if pending.size == 0:
            break
        if evaluator is not None:
            deltas = np.array(
                [evaluator.move_delta(part, int(j), int(target_part[j])) for j in pending]
            )
            pending = pending[np.argsort(deltas, kind="stable")]
        moved_any = False
        for j in pending:
            j = int(j)
            i = int(target_part[j])
            if loads[i] + sizes[j] > capacities[i] + 1e-9:
                continue
            if not index.move_is_feasible(part, j, i):
                continue
            loads[part[j]] -= sizes[j]
            loads[i] += sizes[j]
            part[j] = i
            moved_any = True
        if not moved_any:
            break
    return Assignment(part, m)


def _swap_step(j, part, loads, sizes, capacities, index, rng) -> bool:
    """Try to reduce ``j``'s conflicts by swapping with another component.

    Handles the case where ``j``'s best destination is capacity-blocked:
    exchanging ``j`` with a resident of that partition sidesteps the
    block.  Applies the first swap that strictly reduces the two
    components' combined conflict count (evaluated post-swap) while
    keeping both capacities satisfied; returns whether a swap happened.
    """
    here = int(part[j])
    m = capacities.size
    row = index.conflict_row(part, j)
    current_j = row[here]
    # Partitions ranked by how conflict-free they'd be for j.
    ranking = sorted(
        (i for i in range(m) if i != here), key=lambda i: (row[i], rng.random())
    )
    for i in ranking[:4]:
        if row[i] >= current_j:
            break
        members = np.flatnonzero(part == i)
        if members.size == 0:
            continue
        members = members[rng.permutation(members.size)]
        for k in members[:8]:
            k = int(k)
            if loads[i] - sizes[k] + sizes[j] > capacities[i] + 1e-9:
                continue
            if loads[here] - sizes[j] + sizes[k] > capacities[here] + 1e-9:
                continue
            before = current_j + index.conflict_row(part, k)[i]
            # Evaluate after-positions with the swap applied.
            part[j], part[k] = i, here
            after = (
                index.conflict_row(part, j)[i] + index.conflict_row(part, k)[here]
            )
            if after < before:
                loads[i] += sizes[j] - sizes[k]
                loads[here] += sizes[k] - sizes[j]
                return True
            part[j], part[k] = here, i
    return False
