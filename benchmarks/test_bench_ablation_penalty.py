"""Ablation: the timing-violation penalty magnitude (Section 3.2).

The paper fixes the penalty at 50 and argues (Theorem 2) that *any*
value works as long as the minimiser lands timing-feasible, while
Theorem 1's exact constant ``U`` can be astronomically large
(numerically risky).  This ablation runs the QBP solver across penalty
regimes on one circuit and reports quality; all regimes must return
violation-free solutions.
"""

import pytest

from repro.core.constraints import check_feasibility
from repro.core.objective import ObjectiveEvaluator
from repro.solvers.qbp import resolve_penalty, solve_qbp

CIRCUIT = "cktb"
PENALTIES = ["paper", None, "theorem1"]
IDS = ["paper-50", "auto", "theorem1-U"]


@pytest.mark.parametrize("penalty", PENALTIES, ids=IDS)
def test_bench_penalty_regime(benchmark, penalty, workloads, initials):
    workload = workloads[CIRCUIT]
    problem = workload.problem
    initial = initials[CIRCUIT]
    evaluator = ObjectiveEvaluator(problem)
    start = evaluator.cost(initial)

    result = benchmark.pedantic(
        solve_qbp,
        args=(problem,),
        kwargs={"iterations": 40, "initial": initial, "seed": 0, "penalty": penalty},
        rounds=1,
    )
    assignment = result.best_feasible_assignment or initial
    final = evaluator.cost(assignment)
    value = resolve_penalty(problem, penalty)
    print(f"\n[penalty={value:g}] start={start:.0f} final={final:.0f} "
          f"(-{100 * (start - final) / start:.1f}%)")
    assert check_feasibility(problem, assignment).feasible
