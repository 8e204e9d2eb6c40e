"""Tests for repro.engine.outcome (the unified SolveOutcome type)."""

import pytest

from repro.baselines.result import InterchangeResult
from repro.core.assignment import Assignment
from repro.engine.outcome import SolveOutcome
from repro.solvers.qbp import BurkardResult


def base(**kw):
    defaults = dict(
        assignment=Assignment([0, 1], 2), cost=4.0, feasible=True,
        elapsed_seconds=0.1,
    )
    defaults.update(kw)
    return SolveOutcome(**defaults)


class TestSolveOutcome:
    def test_solution_defaults_to_assignment(self):
        outcome = base()
        assert outcome.solution is outcome.assignment

    def test_completed_for_natural_stops(self):
        assert base().completed
        assert base(stop_reason="stalled").completed
        assert not base(stop_reason="deadline").completed
        assert not base(stop_reason="cancelled").completed


class TestSubclassConvergence:
    def test_interchange_result_is_solve_outcome(self):
        result = InterchangeResult(
            assignment=Assignment([0, 1], 2),
            cost=10.0,
            feasible=True,
            elapsed_seconds=0.5,
            initial_cost=20.0,
            passes=2,
            moves_applied=3,
        )
        assert isinstance(result, SolveOutcome)
        assert result.solution is result.assignment
        assert result.completed
        assert result.improvement_percent == pytest.approx(50.0)

    def test_burkard_result_is_solve_outcome(self):
        feas = Assignment([1, 0], 2)
        result = BurkardResult(
            assignment=Assignment([0, 1], 2),
            cost=5.0,
            feasible=True,
            elapsed_seconds=0.2,
            penalized_cost=5.0,
            best_feasible_assignment=feas,
            best_feasible_cost=5.5,
        )
        assert isinstance(result, SolveOutcome)
        # QBP reports the best *fully feasible* iterate, not the
        # penalized-cost incumbent.
        assert result.solution is feas

    def test_burkard_solution_none_without_feasible_iterate(self):
        result = BurkardResult(
            assignment=Assignment([0, 1], 2),
            cost=5.0,
            feasible=False,
            elapsed_seconds=0.2,
        )
        assert result.solution is None

    def test_uniform_downstream_handling(self):
        """The pattern harness/CLI use: .solution with initial fallback."""
        initial = Assignment([0, 0], 2)
        for result in (
            BurkardResult(
                assignment=Assignment([0, 1], 2), cost=1.0, feasible=False,
                elapsed_seconds=0.0,
            ),
            InterchangeResult(
                assignment=Assignment([1, 1], 2), cost=2.0, feasible=True,
                elapsed_seconds=0.0,
            ),
        ):
            chosen = result.solution if result.solution is not None else initial
            assert isinstance(chosen, Assignment)
