"""Parallel multistart: bit-identical to serial, failure semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.telemetry import Telemetry, use_telemetry
from repro.parallel.pool import supports_process_pool
from repro.runtime.faults import FaultPlan, InjectedFault, inject_faults
from repro.solvers.qbp import MultistartError, solve_qbp_multistart

needs_fork = pytest.mark.skipif(
    not supports_process_pool(), reason="platform lacks fork"
)


def result_key(result):
    return (
        result.cost,
        result.best_feasible_cost,
        result.penalized_cost,
        result.assignment.part.tolist(),
    )


@needs_fork
class TestSerialParallelEquivalence:
    def test_bit_identical_best(self, small_problem):
        serial = solve_qbp_multistart(
            small_problem, restarts=4, iterations=10, seed=9, workers=1
        )
        parallel = solve_qbp_multistart(
            small_problem, restarts=4, iterations=10, seed=9, workers=4
        )
        assert result_key(serial) == result_key(parallel)

    def test_worker_count_does_not_matter(self, small_problem):
        two = solve_qbp_multistart(
            small_problem, restarts=3, iterations=8, seed=5, workers=2
        )
        three = solve_qbp_multistart(
            small_problem, restarts=3, iterations=8, seed=5, workers=3
        )
        assert result_key(two) == result_key(three)

    def test_telemetry_streams_match(self, small_problem):
        def run(workers):
            tel = Telemetry.enabled_default()
            with use_telemetry(tel):
                solve_qbp_multistart(
                    small_problem, restarts=3, iterations=8, seed=2, workers=workers
                )
            return tel

        serial, parallel = run(1), run(3)
        s_snap, p_snap = serial.metrics_snapshot(), parallel.metrics_snapshot()
        assert (
            s_snap["counters"]["solver.iterations"]
            == p_snap["counters"]["solver.iterations"]
        )
        assert s_snap["counters"]["solver.restarts"] == 3.0
        assert p_snap["counters"]["solver.restarts"] == 3.0

        def restart_stream(tel):
            return [
                (e.index, e.best_cost, e.best_feasible_cost)
                for e in tel.events()
                if e.kind == "restart"
            ]

        assert restart_stream(serial) == restart_stream(parallel)

    def test_restart_events_ordered_by_index(self, small_problem):
        tel = Telemetry.enabled_default()
        with use_telemetry(tel):
            solve_qbp_multistart(
                small_problem, restarts=4, iterations=6, seed=0, workers=4
            )
        indexes = [e.index for e in tel.events() if e.kind == "restart"]
        assert indexes == [0, 1, 2, 3]


class TestRestartIndependence:
    def test_restart_k_independent_of_earlier_restarts(self, small_problem):
        # Seed streams: restart k is a function of (seed, k) only, so
        # running MORE restarts never changes the earlier ones' results.
        three = solve_qbp_multistart(
            small_problem, restarts=3, iterations=8, seed=6
        )
        five = solve_qbp_multistart(
            small_problem, restarts=5, iterations=8, seed=6
        )
        # The 5-restart best can only improve on the 3-restart best.
        assert (
            five.best_feasible_cost,
            five.penalized_cost,
        ) <= (three.best_feasible_cost, three.penalized_cost)


class TestFailurePropagation:
    def test_all_restarts_failing_raises_with_first_index(self, small_problem):
        plan = FaultPlan().fail("qbp.iteration", times=None)
        with inject_faults(plan):
            with pytest.raises(MultistartError, match="restart 0"):
                solve_qbp_multistart(
                    small_problem, restarts=3, iterations=5, seed=0
                )

    def test_first_exception_is_the_cause(self, small_problem):
        plan = FaultPlan().fail("qbp.iteration", times=None)
        with inject_faults(plan):
            with pytest.raises(MultistartError) as excinfo:
                solve_qbp_multistart(
                    small_problem, restarts=2, iterations=5, seed=0
                )
        assert isinstance(excinfo.value.__cause__, InjectedFault)

    def test_partial_failures_are_tolerated(self, small_problem):
        # First restart dies, the rest still produce a best result.
        reference = solve_qbp_multistart(
            small_problem, restarts=3, iterations=8, seed=4
        )
        plan = FaultPlan().fail("qbp.iteration", times=1)
        with inject_faults(plan):
            survived = solve_qbp_multistart(
                small_problem, restarts=3, iterations=8, seed=4
            )
        assert survived.penalized_cost is not None
        # Restarts 1..2 are seed-stream independent of restart 0, so the
        # survivor set's best is one of the reference restarts' results.
        assert (
            survived.best_feasible_cost >= reference.best_feasible_cost
        )

    def test_failed_restart_emits_fallback_event(self, small_problem):
        tel = Telemetry.enabled_default()
        plan = FaultPlan().fail("qbp.iteration", times=1)
        with inject_faults(plan):
            with use_telemetry(tel):
                solve_qbp_multistart(
                    small_problem, restarts=2, iterations=5, seed=0
                )
        fallbacks = [e for e in tel.events() if e.kind == "fallback"]
        assert any(
            e.ladder == "qbp.multistart" and e.rung == "worker-0"
            for e in fallbacks
        )

    def test_argument_errors_raise_immediately(self, small_problem):
        with pytest.raises(ValueError):
            solve_qbp_multistart(small_problem, restarts=0)

    def test_error_aggregates_every_failing_restart(self, small_problem):
        plan = FaultPlan().fail("qbp.iteration", times=None)
        with inject_faults(plan):
            with pytest.raises(MultistartError) as excinfo:
                solve_qbp_multistart(
                    small_problem, restarts=3, iterations=5, seed=0
                )
        err = excinfo.value
        assert err.failed_indices == [0, 1, 2]
        assert len(err.failures) == 3
        for index, description in err.failures:
            assert isinstance(index, int)
            assert "InjectedFault" in description or "injected" in description
        assert "failing restarts: 0, 1, 2" in str(err)

    def test_error_without_failures_still_formats(self):
        err = MultistartError("nothing ran")
        assert err.failures == []
        assert err.failed_indices == []


class TestIntegrityGate:
    """Corrupted restart results are rejected, not silently accepted."""

    def test_corrupt_results_rejected_serially(self, small_problem):
        reference = solve_qbp_multistart(
            small_problem, restarts=3, iterations=8, seed=4
        )
        tel = Telemetry.enabled_default()
        plan = FaultPlan().fail_task("worker.corrupt", tasks=[1])
        with inject_faults(plan):
            with use_telemetry(tel):
                survived = solve_qbp_multistart(
                    small_problem, restarts=3, iterations=8, seed=4, workers=1
                )
        # The tampered restart is dropped; the survivors' best can only
        # be no better than the undisturbed best.
        assert survived.best_feasible_cost >= reference.best_feasible_cost
        rejects = [e for e in tel.events() if e.kind == "integrity"]
        assert [e.task for e in rejects] == [1]
        assert tel.metrics_snapshot()["counters"]["pool.integrity_rejects"] == 1.0

    def test_verifier_accepts_honest_results(self, small_problem):
        from repro.solvers.qbp.multistart import multistart_verifier
        from repro.solvers.qbp import solve_qbp

        result = solve_qbp(small_problem, iterations=8, seed=4)
        multistart_verifier(small_problem)(result, payload=None)  # no raise

    def test_verifier_rejects_tampered_cost(self, small_problem):
        from dataclasses import replace

        from repro.parallel.retry import IntegrityError
        from repro.solvers.qbp.multistart import multistart_verifier
        from repro.solvers.qbp import solve_qbp

        result = solve_qbp(small_problem, iterations=8, seed=4)
        tampered = replace(result, cost=result.cost * 0.5)
        with pytest.raises(IntegrityError, match="cost"):
            multistart_verifier(small_problem)(tampered, payload=None)

    @needs_fork
    def test_corrupt_results_rejected_in_processes(self, small_problem):
        tel = Telemetry.enabled_default()
        plan = FaultPlan().fail_task("worker.corrupt", tasks=[0])
        with inject_faults(plan):
            with use_telemetry(tel):
                survived = solve_qbp_multistart(
                    small_problem, restarts=3, iterations=8, seed=4, workers=3
                )
        assert survived.penalized_cost is not None
        rejects = [e for e in tel.events() if e.kind == "integrity"]
        assert [e.task for e in rejects] == [0]


class TestDeterministicSeeding:
    def test_same_seed_reproduces(self, small_problem):
        a = solve_qbp_multistart(small_problem, restarts=2, iterations=8, seed=3)
        b = solve_qbp_multistart(small_problem, restarts=2, iterations=8, seed=3)
        assert result_key(a) == result_key(b)

    def test_generator_seed_supported(self, small_problem):
        a = solve_qbp_multistart(
            small_problem,
            restarts=2,
            iterations=8,
            seed=np.random.default_rng(11),
        )
        b = solve_qbp_multistart(
            small_problem,
            restarts=2,
            iterations=8,
            seed=np.random.default_rng(11),
        )
        assert result_key(a) == result_key(b)
