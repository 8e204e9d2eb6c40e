"""Ablation: the feasibility-projection enhancements (DESIGN.md §4b).

Runs the timing-constrained QBP solve with the iterate projection
machinery on (default) and off (the paper's pseudocode behaviour, where
only iterates that happen to be violation-free can update the feasible
incumbent).  Quantifies what the enhancement buys on dense instances.
"""

import pytest

from repro.core.objective import ObjectiveEvaluator
from repro.solvers.qbp import solve_qbp

CIRCUIT = "cktb"
MODES = [True, False]
IDS = ["projection-on", "projection-off"]


@pytest.mark.parametrize("repair", MODES, ids=IDS)
def test_bench_repair_ablation(benchmark, repair, workloads, initials):
    workload = workloads[CIRCUIT]
    problem = workload.problem
    initial = initials[CIRCUIT]
    evaluator = ObjectiveEvaluator(problem)
    start = evaluator.cost(initial)

    result = benchmark.pedantic(
        solve_qbp,
        args=(problem,),
        kwargs={
            "iterations": 40,
            "initial": initial,
            "seed": 0,
            "repair_iterates": repair,
        },
        rounds=1,
    )
    assignment = result.best_feasible_assignment or initial
    final = min(evaluator.cost(assignment), start)
    print(f"\n[repair={repair}] start={start:.0f} final={final:.0f} "
          f"(-{100 * (start - final) / start:.1f}%)")
    assert final <= start + 1e-9
