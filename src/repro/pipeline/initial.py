"""The shared initial-solution ladders.

Before this layer existed the degrading fallback ladder (QBP bootstrap
-> greedy+repair -> plain greedy) was copy-pasted into
``tools/partition.py`` and ``service/executor.py``, and the harness
kept its own paper-protocol variant.  Both now live here, once, and the
three call sites import them.

Two ladders because the two protocols differ deliberately:

* :func:`supervised_initial_solution` — the *partitioner's* ladder for
  arbitrary user problems: always ends in something runnable, even if
  only capacity-feasible.
* :func:`paper_initial_solution` — the *experiment harness's* ladder:
  the paper's bootstrap recipe with a known-feasible reference
  assignment as the safety net (synthetic workloads carry one by
  construction).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.assignment import Assignment
from repro.core.problem import PartitioningProblem
from repro.runtime.budget import Budget, BudgetExceededError
from repro.runtime.supervisor import (
    Attempt,
    SolverSupervisor,
    SupervisorExhaustedError,
)
from repro.solvers.qbp import bootstrap_initial_solution
from repro.solvers.greedy import greedy_feasible_assignment
from repro.solvers.repair import repair_feasibility
from repro.utils.rng import RandomSource


class InitialSolutionError(RuntimeError):
    """No starting assignment could be constructed (every rung failed)."""


def supervised_initial_solution(
    problem: PartitioningProblem,
    seed: int,
    budget: Optional[Budget] = None,
    *,
    name: str = "pipeline.initial",
) -> Tuple[Assignment, str]:
    """Build a starting assignment via a degrading fallback ladder.

    Rungs, in order: the paper's QBP bootstrap (fully feasible), greedy
    placement polished by min-conflicts repair (fully feasible), and
    plain greedy placement (capacity-feasible only - timing violations
    possible, but the partitioner still has *something* to improve).
    Returns the assignment and the name of the rung that produced it;
    raises :class:`InitialSolutionError` if every rung fails.  ``name``
    labels the supervisor's telemetry events (callers keep their
    historical labels: ``partition.initial``, ``service.initial``).
    """

    def qbp_bootstrap(attempt_budget: Optional[Budget]) -> Assignment:
        return bootstrap_initial_solution(problem, seed=seed, budget=attempt_budget)

    def repaired_greedy(attempt_budget: Optional[Budget]) -> Assignment:
        base = greedy_feasible_assignment(problem, seed=seed)
        repaired = repair_feasibility(problem, base, seed=seed)
        if repaired is None:
            raise RuntimeError("min-conflicts repair exhausted its move budget")
        return repaired

    def greedy_capacity_only(attempt_budget: Optional[Budget]) -> Assignment:
        return greedy_feasible_assignment(problem, seed=seed)

    supervisor = SolverSupervisor(
        [
            Attempt("qbp-bootstrap", qbp_bootstrap),
            Attempt("greedy+repair", repaired_greedy),
            Attempt("greedy-capacity-only", greedy_capacity_only),
        ],
        transient=(RuntimeError,),
        budget=budget,
        name=name,
    )
    try:
        outcome = supervisor.run()
    except BudgetExceededError:
        # Budget gone before any rung finished: fall back to the cheap
        # constructor outside supervision so the caller still gets a start.
        return greedy_feasible_assignment(problem, seed=seed), "greedy-capacity-only"
    except SupervisorExhaustedError as exc:
        raise InitialSolutionError(
            f"no initial solution could be constructed: {exc}"
        ) from exc
    return outcome.value, outcome.attempt


def paper_initial_solution(
    problem: PartitioningProblem,
    reference: Assignment,
    *,
    seed: RandomSource = None,
    bootstrap_iterations: int = 40,
    budget: Optional[Budget] = None,
) -> Assignment:
    """The harness's shared start: paper bootstrap, reference safety net.

    The paper generates ONE initial feasible solution per circuit by
    running QBP with ``B = 0`` and reuses it for every method.  On a
    synthetic workload the recipe can occasionally fail to reach full
    feasibility; ``reference`` (feasible by construction) then stands
    in, playing the same role as the designer's initial assignment in
    the MCM flow.  An exhausted ``budget`` also falls through to the
    reference so callers always get *some* feasible start.
    """

    def paper_bootstrap(attempt_budget: Optional[Budget]) -> Assignment:
        return bootstrap_initial_solution(
            problem,
            iterations=bootstrap_iterations,
            seed=seed,
            budget=attempt_budget,
        )

    def reference_fallback(attempt_budget: Optional[Budget]) -> Assignment:
        return reference.copy()

    supervisor = SolverSupervisor(
        [
            Attempt("paper-bootstrap", paper_bootstrap),
            Attempt("reference-fallback", reference_fallback),
        ],
        transient=(RuntimeError,),
        budget=budget,
    )
    try:
        return supervisor.run().value
    except (BudgetExceededError, SupervisorExhaustedError):
        return reference.copy()


__all__ = [
    "InitialSolutionError",
    "paper_initial_solution",
    "supervised_initial_solution",
]
