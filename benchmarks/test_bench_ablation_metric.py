"""Ablation: arbitrary interconnection cost metrics (Section 2.1 / 5).

The formulation supports "any type of interconnection cost metrics";
the baselines were generalized likewise ("we allow arbitrary
interconnection cost (e.g. Manhattan wire length, quadratic wire
length, or just total number of wire crossings) for GFM and GKL").
This ablation re-solves one circuit under all three metrics with all
three methods.
"""

import numpy as np
import pytest

from repro.baselines.gfm import gfm_partition
from repro.baselines.gkl import gkl_partition
from repro.core.objective import ObjectiveEvaluator
from repro.core.problem import PartitioningProblem
from repro.solvers.qbp import solve_qbp
from repro.solvers.greedy import greedy_feasible_assignment
from repro.topology.grid import grid_topology

CIRCUIT = "cktb"
METRICS = ["manhattan", "quadratic", "uniform"]
SOLVERS = ["qbp", "gfm", "gkl"]


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("solver", SOLVERS)
def test_bench_metric(benchmark, metric, solver, workloads):
    workload = workloads[CIRCUIT]
    circuit = workload.circuit
    base = workload.topology
    topo = grid_topology(
        4, 4, capacity=base.capacities().tolist(), metric=metric
    )
    problem = PartitioningProblem(circuit, topo, name=f"{CIRCUIT}-{metric}")
    initial = greedy_feasible_assignment(problem, seed=0)
    evaluator = ObjectiveEvaluator(problem)
    start = evaluator.cost(initial)

    if solver == "qbp":
        run = lambda: solve_qbp(problem, iterations=30, initial=initial, seed=0)
        result = benchmark.pedantic(run, rounds=1)
        final = min(result.best_feasible_cost, start)
    elif solver == "gfm":
        result = benchmark.pedantic(gfm_partition, args=(problem, initial), rounds=1)
        final = result.cost
    else:
        result = benchmark.pedantic(
            gkl_partition, args=(problem, initial), rounds=1
        )
        final = result.cost
    print(f"\n[{metric}/{solver}] start={start:.0f} final={final:.0f} "
          f"(-{100 * (start - final) / start:.1f}%)")
    assert final <= start + 1e-9
