"""Replay: every inner GAP solve of a QBP run equals the oracle's.

``repro.solvers.qbp.iteration.solve_gap`` is wrapped so that each call
the QBP ladder makes (trust, timing and plain rungs, with the costs the
Burkard iteration really produces) also runs the previous numpy
implementation kept in :mod:`tests.solvers.gap_oracle`.  The results -
assignment, cost, winning criterion, ``improved`` flag, or the
infeasibility error - must be identical.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import repro.solvers.qbp.iteration as iteration
from repro.eval.workloads import build_workload
from repro.solvers.gap import GapInfeasibleError
from repro.solvers.qbp import solve_qbp
from tests.solvers import gap_oracle


def _rung(kwargs) -> str:
    if kwargs.get("allowed_mask") is not None:
        return "trust"
    return "timing" if kwargs.get("timing") is not None else "plain"


@pytest.fixture
def oracle_checked(monkeypatch):
    """Wrap the ladder's ``solve_gap``; returns the per-rung call counts."""
    real = iteration.solve_gap
    calls = Counter()

    def checked(cost, sizes, capacities, **kwargs):
        calls[_rung(kwargs)] += 1
        try:
            expected = gap_oracle.solve_gap(cost, sizes, capacities, **kwargs)
        except GapInfeasibleError:
            expected = None
        try:
            result = real(cost, sizes, capacities, **kwargs)
        except GapInfeasibleError:
            assert expected is None, "oracle found an assignment"
            calls["infeasible"] += 1
            raise
        assert expected is not None, "oracle raised GapInfeasibleError"
        assert result.assignment.dtype == expected.assignment.dtype
        assert np.array_equal(result.assignment, expected.assignment)
        assert result.cost == expected.cost
        assert result.criterion == expected.criterion
        assert result.improved == expected.improved
        return result

    monkeypatch.setattr(iteration, "solve_gap", checked)
    return calls


@pytest.mark.parametrize("scale", [0.1, 0.15])
def test_timing_run_from_reference(oracle_checked, scale):
    workload = build_workload("ckta", scale=scale)
    solve_qbp(workload.problem, iterations=30, initial=workload.reference, seed=0)
    assert oracle_checked["trust"] > 0
    if scale == 0.15:  # here the trust and timing rungs fail every time
        assert oracle_checked["infeasible"] > 0
        assert oracle_checked["timing"] > 0 and oracle_checked["plain"] > 0


def test_timing_free_run(oracle_checked):
    workload = build_workload("cktg", scale=0.1)
    solve_qbp(workload.problem_no_timing, iterations=30, seed=0)
    assert oracle_checked["plain"] > 0
    assert set(oracle_checked) <= {"plain"}
