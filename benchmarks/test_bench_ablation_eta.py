"""Ablation: the STEP 3 eta variants (see solve_qbp's ``eta_mode``).

``burkard`` is the paper's pseudocode verbatim (column sums only -
faithful for symmetric ``A``); ``diagonal`` adds candidate linear
costs; ``symmetric`` (the library default) sums both halves of
``Q_hat``.  The ablation quantifies what each buys on a one-directional
wire representation.
"""

import pytest

from repro.core.objective import ObjectiveEvaluator
from repro.solvers.qbp import ETA_MODES, solve_qbp

CIRCUIT = "cktb"


@pytest.mark.parametrize("eta_mode", ETA_MODES)
def test_bench_eta_mode(benchmark, eta_mode, workloads, initials):
    workload = workloads[CIRCUIT]
    problem = workload.problem_no_timing
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
            "eta_mode": eta_mode,
        },
        rounds=1,
    )
    final = min(result.best_feasible_cost, start)
    print(f"\n[eta={eta_mode}] start={start:.0f} final={final:.0f} "
          f"(-{100 * (start - final) / start:.1f}%)")
    assert final <= start
