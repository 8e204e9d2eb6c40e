"""Generalized / Linear Assignment special cases (paper Section 2.2.2).

``PP(1, 0)`` with no timing constraints *is* a Generalized Assignment
Problem; with ``M = N`` and unit sizes/capacities it degenerates further
to a Linear Assignment Problem.  These reductions are one-liners on top
of :mod:`repro.solvers.gap` / :mod:`repro.solvers.lap` and exist so the
special-case structure the paper points out is executable (and tested).
"""

from __future__ import annotations

import numpy as np

from repro.core.assignment import Assignment
from repro.core.problem import PartitioningProblem
from repro.solvers.gap import GapResult, solve_gap
from repro.solvers.lap import LapResult, solve_lap


def solve_as_generalized_assignment(problem: PartitioningProblem) -> GapResult:
    """Solve a linear-only, timing-free problem as a GAP.

    Requires ``beta == 0`` (or no wires) and no timing constraints, i.e.
    exactly the Section 2.2.2 special case; raises ``ValueError``
    otherwise - use :func:`repro.solvers.qbp.solve_qbp` for the
    general problem.
    """
    if problem.has_timing:
        raise ValueError("problem has timing constraints; not a pure GAP")
    if problem.beta != 0 and problem.circuit.num_wires > 0:
        raise ValueError("problem has an active quadratic term; not a pure GAP")
    p = problem.linear_cost_matrix()
    if p is None:
        p = np.zeros((problem.num_partitions, problem.num_components))
    return solve_gap(problem.alpha * p, problem.sizes(), problem.capacities())


def is_linear_assignment(problem: PartitioningProblem) -> bool:
    """Does this problem degenerate to a Linear Assignment Problem?

    Requires ``M == N`` and constant sizes equal to constant capacities
    (so every partition holds exactly one component).
    """
    if problem.num_partitions != problem.num_components:
        return False
    sizes = problem.sizes()
    capacities = problem.capacities()
    if sizes.size == 0:
        return True
    return bool(
        np.allclose(sizes, sizes[0]) and np.allclose(capacities, sizes[0])
    )


def solve_as_linear_assignment(problem: PartitioningProblem) -> LapResult:
    """Solve the LAP degenerate case exactly.

    Requires :func:`is_linear_assignment` plus the GAP conditions.
    The returned ``col_of_row`` maps component ``j`` to its partition.
    """
    if problem.has_timing:
        raise ValueError("problem has timing constraints; not a pure LAP")
    if problem.beta != 0 and problem.circuit.num_wires > 0:
        raise ValueError("problem has an active quadratic term; not a pure LAP")
    if not is_linear_assignment(problem):
        raise ValueError("problem does not satisfy the LAP degeneracy conditions")
    p = problem.linear_cost_matrix()
    if p is None:
        p = np.zeros((problem.num_partitions, problem.num_components))
    # LAP rows are components, columns partitions: transpose P.
    return solve_lap(problem.alpha * p.T)


def gap_result_to_assignment(result: GapResult, num_partitions: int) -> Assignment:
    """Wrap a GAP result back into an :class:`Assignment`."""
    return Assignment(result.assignment, num_partitions)
