"""Ablation: robustness to the initial solution.

The paper: "In our separate experiments we discovered that QBP
maintained the same kind of good results from any arbitrary initial
solution" (while GFM and GKL *need* a feasible start).  This ablation
runs QBP from the shared bootstrap start and from fresh randomized
greedy starts and compares outcomes.
"""

import pytest

from repro.core.objective import ObjectiveEvaluator
from repro.solvers.qbp import solve_qbp
from repro.solvers.greedy import greedy_feasible_assignment

CIRCUIT = "cktb"
STARTS = ["bootstrap", "greedy-1", "greedy-2"]


@pytest.mark.parametrize("start", STARTS)
def test_bench_initial_robustness(benchmark, start, workloads, initials):
    workload = workloads[CIRCUIT]
    problem = workload.problem_no_timing
    if start == "bootstrap":
        initial = initials[CIRCUIT]
    else:
        seed = int(start.split("-")[1])
        initial = greedy_feasible_assignment(problem, seed=seed)
    evaluator = ObjectiveEvaluator(problem)

    result = benchmark.pedantic(
        solve_qbp,
        args=(problem,),
        kwargs={"iterations": 40, "initial": initial, "seed": 0},
        rounds=1,
    )
    final = min(result.best_feasible_cost, evaluator.cost(initial))
    print(f"\n[start={start}] initial={evaluator.cost(initial):.0f} final={final:.0f}")
    assert result.best_feasible_assignment is not None
