#!/usr/bin/env python
"""Capture golden solver outputs for the engine-refactor equivalence tests.

Runs every solver entry point (``solve_qbp``, ``solve_qbp_multistart``,
GFM, GKL, annealing) on small fixed-seed workloads and records the exact
assignment vectors and costs to
``tests/integration/data/golden_equivalence.json``.

``tests/integration/test_golden_equivalence.py`` replays the same runs
and asserts bit-identical results, so any refactor of the solver/engine
stack that changes numerical behaviour fails loudly.  Re-run this script
(and commit the diff) only when an output change is intentional.

Usage::

    PYTHONPATH=src python scripts/capture_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.baselines.annealing import annealing_partition
from repro.baselines.gfm import gfm_partition
from repro.baselines.gkl import gkl_partition
from repro.eval.harness import shared_initial_solution
from repro.eval.workloads import build_workload
from repro.solvers.qbp import solve_qbp, solve_qbp_multistart

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent
    / "tests"
    / "integration"
    / "data"
    / "golden_equivalence.json"
)

GOLDEN_FORMAT = "golden-equivalence-v1"

SCALE = 0.1
QBP_ITERATIONS = 12
MULTISTART_RESTARTS = 3
MULTISTART_ITERATIONS = 8
INITIAL_SEED = 1


def capture_case(name: str, with_timing: bool) -> dict:
    """All solver outputs for one (circuit, timing) case."""
    workload = build_workload(name, scale=SCALE)
    problem = workload.problem if with_timing else workload.problem_no_timing
    initial = shared_initial_solution(workload, seed=INITIAL_SEED)

    qbp = solve_qbp(problem, iterations=QBP_ITERATIONS, initial=initial, seed=3)
    multi = solve_qbp_multistart(
        problem,
        restarts=MULTISTART_RESTARTS,
        iterations=MULTISTART_ITERATIONS,
        seed=5,
    )
    gfm = gfm_partition(problem, initial)
    gkl = gkl_partition(problem, initial)
    anneal = annealing_partition(problem, initial, temperature_steps=8, seed=7)

    return {
        "initial": initial.part.tolist(),
        "qbp": {
            "part": qbp.assignment.part.tolist(),
            "cost": qbp.cost,
            "penalized_cost": qbp.penalized_cost,
            "best_feasible_cost": (
                None
                if qbp.best_feasible_assignment is None
                else qbp.best_feasible_cost
            ),
        },
        "multistart": {
            "part": multi.assignment.part.tolist(),
            "cost": multi.cost,
            "penalized_cost": multi.penalized_cost,
        },
        "gfm": {"part": gfm.assignment.part.tolist(), "cost": gfm.cost},
        "gkl": {"part": gkl.assignment.part.tolist(), "cost": gkl.cost},
        "annealing": {"part": anneal.assignment.part.tolist(), "cost": anneal.cost},
    }


def main() -> int:
    payload = {
        "format": GOLDEN_FORMAT,
        "params": {
            "scale": SCALE,
            "qbp_iterations": QBP_ITERATIONS,
            "multistart_restarts": MULTISTART_RESTARTS,
            "multistart_iterations": MULTISTART_ITERATIONS,
            "initial_seed": INITIAL_SEED,
        },
        "cases": {
            "ckta-timing": capture_case("ckta", with_timing=True),
            "ckta-no-timing": capture_case("ckta", with_timing=False),
            "cktb-timing": capture_case("cktb", with_timing=True),
        },
    }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
