"""Ablation: iteration count vs solution quality.

The paper: "the solution quality is dependent on the number of
iterations, the more CPU time spent, the better the results" and "the
user can have precise control over the total runtime".  This sweep
verifies both properties: quality is monotone non-increasing in
iteration count (the incumbent never worsens) and runtime scales
roughly linearly.
"""

import pytest

from repro.core.objective import ObjectiveEvaluator
from repro.solvers.qbp import solve_qbp

CIRCUIT = "cktb"
SWEEP = [5, 25, 100]

_results = {}


@pytest.mark.parametrize("iterations", SWEEP)
def test_bench_iteration_sweep(benchmark, iterations, workloads, initials):
    workload = workloads[CIRCUIT]
    problem = workload.problem_no_timing
    initial = initials[CIRCUIT]
    evaluator = ObjectiveEvaluator(problem)

    result = benchmark.pedantic(
        solve_qbp,
        args=(problem,),
        kwargs={"iterations": iterations, "initial": initial, "seed": 0},
        rounds=1,
    )
    final = min(result.best_feasible_cost, evaluator.cost(initial))
    _results[iterations] = final
    print(f"\n[iterations={iterations}] final={final:.0f}")

    # Monotonicity across the sweep so far (pytest runs params in order).
    costs = [_results[k] for k in sorted(_results)]
    assert all(a >= b - 1e-9 for a, b in zip(costs, costs[1:]))
