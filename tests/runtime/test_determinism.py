"""Seed determinism regression tests (same seed => bit-identical results)."""

from __future__ import annotations

import numpy as np

from repro.solvers.qbp import solve_qbp, solve_qbp_multistart


def _identical(a, b):
    assert a.cost == b.cost
    assert a.penalized_cost == b.penalized_cost
    assert a.best_feasible_cost == b.best_feasible_cost
    assert np.array_equal(a.assignment.part, b.assignment.part)
    if a.best_feasible_assignment is None:
        assert b.best_feasible_assignment is None
    else:
        assert np.array_equal(
            a.best_feasible_assignment.part, b.best_feasible_assignment.part
        )
    assert a.history == b.history
    assert a.stop_reason == b.stop_reason


class TestSolveQbpDeterminism:
    def test_same_seed_bit_identical(self, timed_problem, feasible_start):
        runs = [
            solve_qbp(
                timed_problem, iterations=8, initial=feasible_start, seed=123
            )
            for _ in range(2)
        ]
        _identical(runs[0], runs[1])

    def test_same_seed_with_repair_iterates(self, timed_problem, feasible_start):
        runs = [
            solve_qbp(
                timed_problem,
                iterations=8,
                initial=feasible_start,
                seed=321,
                repair_iterates=True,
            )
            for _ in range(2)
        ]
        _identical(runs[0], runs[1])

    def test_no_initial_still_deterministic(self, timed_problem):
        runs = [
            solve_qbp(timed_problem, iterations=6, seed=77) for _ in range(2)
        ]
        _identical(runs[0], runs[1])


class TestMultistartDeterminism:
    def test_same_seed_bit_identical(self, timed_problem):
        runs = [
            solve_qbp_multistart(
                timed_problem, restarts=2, iterations=5, seed=55
            )
            for _ in range(2)
        ]
        _identical(runs[0], runs[1])
