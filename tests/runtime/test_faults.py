"""Fault injection: every degradation path exercised deterministically."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.constraints import capacity_violations
from repro.runtime.checkpoint import QbpCheckpointer
from repro.runtime.faults import (
    FaultPlan,
    InjectedFault,
    inject_faults,
    maybe_fault,
)
from repro.solvers.qbp import (
    BootstrapStallError,
    bootstrap_initial_solution,
    solve_qbp,
)
from repro.solvers.gap import GapInfeasibleError


class TestFaultPlanMechanics:
    def test_inactive_site_is_noop(self):
        maybe_fault("gap.plain")  # no plan active: must not raise

    def test_fail_window(self):
        plan = FaultPlan().fail("site", times=2, after=1)
        with inject_faults(plan):
            maybe_fault("site")  # call 0: before window
            with pytest.raises(InjectedFault):
                maybe_fault("site")  # call 1
            with pytest.raises(InjectedFault):
                maybe_fault("site")  # call 2
            maybe_fault("site")  # call 3: window exhausted
        assert plan.calls["site"] == 4
        assert plan.injected == [("site", 1, "fail"), ("site", 2, "fail")]

    def test_fail_unlimited(self):
        plan = FaultPlan().fail("site", times=None)
        with inject_faults(plan):
            for _ in range(5):
                with pytest.raises(InjectedFault):
                    maybe_fault("site")

    def test_custom_error_class(self):
        plan = FaultPlan().fail("site", error=GapInfeasibleError)
        with inject_faults(plan):
            with pytest.raises(GapInfeasibleError):
                maybe_fault("site")

    def test_fail_rate_deterministic_per_seed(self):
        def run(seed):
            plan = FaultPlan(seed=seed).fail_rate("site", 0.5)
            hits = []
            with inject_faults(plan):
                for i in range(50):
                    try:
                        maybe_fault("site")
                        hits.append(False)
                    except InjectedFault:
                        hits.append(True)
            return hits

        assert run(4) == run(4)
        assert run(4) != run(5)
        assert any(run(4)) and not all(run(4))

    def test_plans_nest_and_restore(self):
        outer = FaultPlan().fail("a")
        inner = FaultPlan()
        with inject_faults(outer):
            with inject_faults(inner):
                maybe_fault("a")  # inner plan has no rule for "a"
            with pytest.raises(InjectedFault):
                maybe_fault("a")  # outer restored
        maybe_fault("a")  # nothing active

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan().fail_rate("site", 1.5)
        with pytest.raises(ValueError):
            FaultPlan().slow("site", -1.0)


class TestGapLadderDegradation:
    """Satellite: the inner-GAP fallback ladder under injected failures."""

    def test_trust_and_timing_failures_fall_to_plain(
        self, timed_problem, feasible_start
    ):
        plan = (
            FaultPlan()
            .fail("gap.trust", times=None, error=GapInfeasibleError)
            .fail("gap.timing", times=None, error=GapInfeasibleError)
        )
        with inject_faults(plan):
            result = solve_qbp(
                timed_problem, iterations=4, initial=feasible_start, seed=2
            )
        # Both upper rungs were attempted and the plain rung carried the run.
        assert plan.calls["gap.trust"] > 0
        assert plan.calls["gap.timing"] > 0
        assert plan.calls["gap.plain"] > 0
        assert result.stop_reason == "completed"
        # The incumbent is still capacity-feasible (C1 + C3).
        assert not capacity_violations(
            result.assignment,
            timed_problem.sizes(),
            timed_problem.capacities(),
        )

    def test_all_rungs_failing_stalls_with_incumbent(
        self, timed_problem, feasible_start
    ):
        plan = (
            FaultPlan()
            .fail("gap.trust", times=None, error=GapInfeasibleError)
            .fail("gap.timing", times=None, error=GapInfeasibleError)
            .fail("gap.plain", times=None, error=GapInfeasibleError)
        )
        with inject_faults(plan):
            result = solve_qbp(
                timed_problem, iterations=4, initial=feasible_start, seed=2
            )
        assert result.stop_reason == "stalled"
        # The feasible start is never lost: the incumbent IS the start.
        assert np.array_equal(result.assignment.part, feasible_start.part)
        assert not capacity_violations(
            result.assignment,
            timed_problem.sizes(),
            timed_problem.capacities(),
        )


class TestBootstrapRetries:
    def test_transient_attempt_failures_retried(self, timed_problem):
        plan = FaultPlan().fail(
            "bootstrap.attempt", times=2, error=BootstrapStallError
        )
        with inject_faults(plan):
            assignment = bootstrap_initial_solution(
                timed_problem, seed=5, attempts=3
            )
        assert plan.calls["bootstrap.attempt"] == 3  # two failures, one success
        assert not capacity_violations(
            assignment, timed_problem.sizes(), timed_problem.capacities()
        )

    def test_exhausted_attempts_raise_runtime_error(self, timed_problem):
        plan = FaultPlan().fail(
            "bootstrap.attempt", times=None, error=BootstrapStallError
        )
        with inject_faults(plan):
            with pytest.raises(RuntimeError, match="bootstrap failed"):
                bootstrap_initial_solution(timed_problem, seed=5, attempts=2)


class TestCheckpointWriteFaults:
    def test_write_failure_degrades_to_warning(
        self, tmp_path, timed_problem, feasible_start, caplog
    ):
        plan = FaultPlan().fail("checkpoint.write", times=None)
        ck = QbpCheckpointer(tmp_path / "qbp.json", every=1)
        with caplog.at_level("WARNING", logger="repro.solvers.qbp.iteration"):
            with inject_faults(plan):
                result = solve_qbp(
                    timed_problem,
                    iterations=3,
                    initial=feasible_start,
                    seed=2,
                    checkpointer=ck,
                )
        assert result.stop_reason == "completed"  # the solve survived
        assert ck.saves == 0
        assert not (tmp_path / "qbp.json").exists()
        assert any("checkpoint write failed" in r.message for r in caplog.records)
