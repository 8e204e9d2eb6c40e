"""Budgeted + checkpointed Table runs: deadline honoring and lossless resume."""

from __future__ import annotations

import json
import time

import pytest

import repro.eval.harness as harness
from repro.eval.harness import (
    TableCheckpoint,
    run_table,
    shared_initial_solution,
)
from repro.eval.workloads import build_workload
from repro.runtime.budget import Budget
from repro.runtime.faults import FaultPlan, inject_faults

QBP_ITERATIONS = 10
SCALE = 0.15


@pytest.fixture(scope="module")
def workload():
    return build_workload("cktb", scale=SCALE)


@pytest.fixture(scope="module")
def initials(workload):
    return {"cktb": shared_initial_solution(workload, seed=0)}


@pytest.fixture(scope="module")
def reference_rows(workload, initials):
    """Budget-free Table III rows to compare interrupted/resumed runs against."""
    return run_table(
        3,
        scale=SCALE,
        qbp_iterations=QBP_ITERATIONS,
        circuits=["cktb"],
        seed=0,
        workloads={"cktb": workload},
        initials=initials,
    )


def _run(workload, initials, **kwargs):
    return run_table(
        3,
        scale=SCALE,
        qbp_iterations=QBP_ITERATIONS,
        circuits=["cktb"],
        seed=0,
        workloads={"cktb": workload},
        initials=initials,
        **kwargs,
    )


class TestDeadline:
    def test_budgeted_table_honors_deadline(self, workload, initials, tmp_path):
        wall = 0.4
        plan = FaultPlan().slow("qbp.iteration", seconds=0.15)
        budget = Budget(wall_seconds=wall)
        start = time.perf_counter()
        with inject_faults(plan):
            rows = _run(
                workload, initials, budget=budget, checkpoint_dir=tmp_path
            )
        elapsed = time.perf_counter() - start
        # Terminates within ~1s of the deadline despite the slow iterations.
        assert elapsed < wall + 1.0
        assert len(rows) == 1
        row = rows[0]
        assert row.stop_reason == "deadline"
        # The emitted row still holds feasible incumbents for every solver.
        assert row.all_feasible
        assert row.solvers["qbp"].cost <= row.start_cost + 1e-9


class TestTableResume:
    def test_interrupt_then_resume_matches_budget_free_run(
        self, workload, initials, reference_rows, tmp_path
    ):
        plan = FaultPlan().slow("qbp.iteration", seconds=0.15)
        with inject_faults(plan):
            interrupted = _run(
                workload,
                initials,
                budget=Budget(wall_seconds=0.4),
                checkpoint_dir=tmp_path,
            )
        assert interrupted[0].stop_reason == "deadline"

        resumed = _run(workload, initials, checkpoint_dir=tmp_path)
        assert len(resumed) == len(reference_rows) == 1
        ref, got = reference_rows[0], resumed[0]
        assert got.stop_reason == "completed"
        assert got.start_cost == ref.start_cost
        assert got.solver_costs() == ref.solver_costs()

    def test_completed_circuits_never_recomputed(
        self, workload, initials, tmp_path, monkeypatch
    ):
        first = _run(workload, initials, checkpoint_dir=tmp_path)
        assert first[0].stop_reason == "completed"

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("completed circuit was recomputed")

        monkeypatch.setattr(harness, "run_circuit_experiment", explode)
        again = _run(workload, initials, checkpoint_dir=tmp_path)
        assert [r.to_dict() for r in again] == [r.to_dict() for r in first]

    def test_parent_format_row_is_recomputed(self, workload, initials, tmp_path):
        first = _run(workload, initials, checkpoint_dir=tmp_path)
        path = tmp_path / "table3.json"
        payload = json.loads(path.read_text())
        for entry in payload["rows"]:
            # The earlier row shape: flattened <solver>_<column> keys and a
            # timings payload beside the nested cells.
            for solver, cell in entry["solvers"].items():
                for column, value in cell.items():
                    entry[f"{solver}_{column}"] = value
            entry["timings"] = None
        path.write_text(json.dumps(payload))

        params = {
            "scale": SCALE,
            "qbp_iterations": QBP_ITERATIONS,
            "seed": 0,
            "methods": ["qbp", "gfm", "gkl"],
        }
        assert TableCheckpoint(tmp_path, 3, params=params).completed("cktb") is None
        again = _run(workload, initials, checkpoint_dir=tmp_path)
        assert again[0].solver_costs() == first[0].solver_costs()
        assert TableCheckpoint(tmp_path, 3, params=params).completed("cktb") == again[0]

    def test_parameter_mismatch_invalidates_record(
        self, workload, initials, tmp_path
    ):
        _run(workload, initials, checkpoint_dir=tmp_path)
        stale = TableCheckpoint(
            tmp_path, 3, params={"scale": 0.5, "qbp_iterations": 1, "seed": 9}
        )
        assert stale.completed("cktb") is None  # params differ: must recompute

    def test_clear_removes_all_state(self, workload, initials, tmp_path):
        _run(workload, initials, checkpoint_dir=tmp_path)
        checkpoint = TableCheckpoint(
            tmp_path,
            3,
            params={
                "scale": SCALE,
                "qbp_iterations": QBP_ITERATIONS,
                "seed": 0,
                "methods": ["qbp", "gfm", "gkl"],
            },
        )
        assert checkpoint.completed("cktb") is not None
        checkpoint.clear()
        fresh = TableCheckpoint(
            tmp_path,
            3,
            params={
                "scale": SCALE,
                "qbp_iterations": QBP_ITERATIONS,
                "seed": 0,
                "methods": ["qbp", "gfm", "gkl"],
            },
        )
        assert fresh.completed("cktb") is None
