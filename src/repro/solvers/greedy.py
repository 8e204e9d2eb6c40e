"""Initial-solution constructors.

The generalized Burkard heuristic needs a starting point ``u(1) in S``
(capacity-feasible; paper STEP 2), and the GFM/GKL baselines need a
*fully* feasible (capacity + timing) start.  This module provides the
capacity-feasible constructors; the paper's timing bootstrap ("use the
QBP algorithm with matrix B set to all zeros") lives in
:func:`repro.solvers.qbp.bootstrap_initial_solution`, which builds on
these.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.assignment import Assignment
from repro.core.constraints import capacity_violations
from repro.core.problem import PartitioningProblem
from repro.utils.rng import RandomSource, ensure_rng


def greedy_feasible_assignment(
    problem: PartitioningProblem,
    seed: RandomSource = None,
    *,
    randomize: bool = True,
    attempts: int = 8,
) -> Assignment:
    """A capacity-feasible assignment by randomized best-fit decreasing.

    Components are placed largest-first into the partition with the most
    residual capacity (random tie-breaking among near-equal partitions
    when ``randomize``).  Retries ``attempts`` times with fresh
    randomness, then makes one final *deterministic* largest-first /
    most-residual (LPT) attempt before failing: on tightly packed
    instances the randomized diversification can keep missing a packing
    the deterministic rule finds, and the extra attempt only runs where
    the constructor previously raised, so succeeding runs are
    bit-identical to before.

    Raises
    ------
    RuntimeError
        When no attempt produces a capacity-feasible assignment.
    """
    rng = ensure_rng(seed)
    sizes = problem.sizes()
    capacities = problem.capacities()
    n, m = problem.num_components, problem.num_partitions
    order = np.argsort(-sizes, kind="stable")

    randomized = max(1, attempts)
    for attempt in range(randomized + 1):
        deterministic = not randomize or attempt == randomized
        residual = capacities.astype(float).copy()
        part = np.full(n, -1, dtype=int)
        ok = True
        for j in order:
            fits = np.flatnonzero(sizes[j] <= residual + 1e-9)
            if fits.size == 0:
                ok = False
                break
            if not deterministic and fits.size > 1:
                # Prefer roomy partitions but keep diversity: sample among
                # the fitting partitions weighted by residual capacity.
                weights = residual[fits] + 1e-9
                choice = int(rng.choice(fits, p=weights / weights.sum()))
            else:
                choice = int(fits[np.argmax(residual[fits])])
            part[j] = choice
            residual[choice] -= sizes[j]
        if ok:
            assignment = Assignment(part, m)
            assert not capacity_violations(assignment, sizes, capacities)
            return assignment
    raise RuntimeError(
        "greedy construction failed to find a capacity-feasible assignment; "
        "capacities may be too tight for best-fit placement"
    )


def balanced_assignment(problem: PartitioningProblem) -> Optional[Assignment]:
    """Deterministic load-balancing placement (largest item, emptiest bin).

    Returns ``None`` instead of raising when it dead-ends, making it
    usable as a cheap first try before the randomized constructor.
    """
    sizes = problem.sizes()
    capacities = problem.capacities()
    n, m = problem.num_components, problem.num_partitions
    residual = capacities.astype(float).copy()
    part = np.full(n, -1, dtype=int)
    for j in np.argsort(-sizes, kind="stable"):
        fits = np.flatnonzero(sizes[j] <= residual + 1e-9)
        if fits.size == 0:
            return None
        choice = int(fits[np.argmax(residual[fits])])
        part[j] = choice
        residual[choice] -= sizes[j]
    return Assignment(part, m)
