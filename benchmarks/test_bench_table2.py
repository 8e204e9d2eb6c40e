"""Benchmark: regenerate Table II (without timing constraints).

One benchmark per (circuit, solver) cell: QBP for ``bench_iterations``
iterations, GFM to convergence, GKL with the paper's 6-outer-loop
cutoff - all from the shared bootstrap initial solution, on the
timing-relaxed problems.  The solver CPU columns of Table II are
exactly these benchmark times.
"""

import pytest

from repro.baselines.gfm import gfm_partition
from repro.baselines.gkl import gkl_partition
from repro.core.constraints import check_feasibility
from repro.core.objective import ObjectiveEvaluator
from repro.eval.workloads import workload_names
from repro.solvers.qbp import solve_qbp

CIRCUITS = workload_names()


@pytest.mark.parametrize("name", CIRCUITS)
def test_bench_table2_qbp(benchmark, name, workloads, initials, bench_iterations):
    workload = workloads[name]
    problem = workload.problem_no_timing
    initial = initials[name]
    evaluator = ObjectiveEvaluator(problem)
    start = evaluator.cost(initial)

    result = benchmark.pedantic(
        solve_qbp,
        args=(problem,),
        kwargs={"iterations": bench_iterations, "initial": initial, "seed": 0},
        rounds=1,
    )
    final = min(result.best_feasible_cost, start)
    print(f"\n[Table II / {name}] QBP: start={start:.0f} final={final:.0f} "
          f"(-{100 * (start - final) / start:.1f}%)")
    assert final <= start


@pytest.mark.parametrize("name", CIRCUITS)
def test_bench_table2_gfm(benchmark, name, workloads, initials):
    workload = workloads[name]
    problem = workload.problem_no_timing
    initial = initials[name]

    result = benchmark.pedantic(gfm_partition, args=(problem, initial), rounds=1)
    print(f"\n[Table II / {name}] GFM: start={result.initial_cost:.0f} "
          f"final={result.cost:.0f} (-{result.improvement_percent:.1f}%)")
    assert result.feasible
    assert check_feasibility(problem, result.assignment).feasible


@pytest.mark.parametrize("name", CIRCUITS)
def test_bench_table2_gkl(benchmark, name, workloads, initials):
    workload = workloads[name]
    problem = workload.problem_no_timing
    initial = initials[name]

    result = benchmark.pedantic(gkl_partition, args=(problem, initial), rounds=1)
    print(f"\n[Table II / {name}] GKL: start={result.initial_cost:.0f} "
          f"final={result.cost:.0f} (-{result.improvement_percent:.1f}%)")
    assert result.feasible
