"""Extension benchmark: all five methods on one circuit.

Beyond the paper's three (QBP / GFM / GKL), the library ships a
Barnes-style spectral partitioner (the formulation family the paper's
introduction contrasts against) and a simulated-annealing baseline.
This benchmark lines all five up on the same problem and start.
"""

import pytest

from repro.baselines.annealing import annealing_partition
from repro.baselines.gfm import gfm_partition
from repro.baselines.gkl import gkl_partition
from repro.baselines.spectral import spectral_partition
from repro.core.constraints import check_feasibility
from repro.core.objective import ObjectiveEvaluator
from repro.solvers.qbp import solve_qbp

CIRCUIT = "cktb"
METHODS = ["qbp", "gfm", "gkl", "annealing", "spectral"]


@pytest.mark.parametrize("method", METHODS)
def test_bench_five_methods(benchmark, method, workloads, initials):
    workload = workloads[CIRCUIT]
    problem = workload.problem_no_timing
    initial = initials[CIRCUIT]
    evaluator = ObjectiveEvaluator(problem)
    start = evaluator.cost(initial)

    if method == "qbp":
        run = lambda: solve_qbp(problem, iterations=40, initial=initial, seed=0)
        result = benchmark.pedantic(run, rounds=1)
        assignment = result.best_feasible_assignment or initial
        final = min(evaluator.cost(assignment), start)
    elif method == "gfm":
        result = benchmark.pedantic(gfm_partition, args=(problem, initial), rounds=1)
        assignment, final = result.assignment, result.cost
    elif method == "gkl":
        result = benchmark.pedantic(gkl_partition, args=(problem, initial), rounds=1)
        assignment, final = result.assignment, result.cost
    elif method == "annealing":
        run = lambda: annealing_partition(
            problem, initial, temperature_steps=25, seed=0
        )
        result = benchmark.pedantic(run, rounds=1)
        assignment, final = result.assignment, result.cost
    else:
        run = lambda: spectral_partition(problem, seed=0)
        result = benchmark.pedantic(run, rounds=1)
        # Spectral ignores the shared start (it is constructive).
        assignment, final = result.assignment, result.cost

    print(f"\n[{method}] start={start:.0f} final={final:.0f}")
    report = check_feasibility(problem, assignment)
    assert not report.capacity_violations
