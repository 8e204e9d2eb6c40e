"""Tests for repro.eval.harness (scaled-down experiment runs)."""

import pytest

from repro.eval.harness import (
    ExperimentRow,
    SolverCell,
    run_circuit_experiment,
    run_table,
    shared_initial_solution,
    summarize_rows,
)
from repro.eval.workloads import build_workload
from repro.core.constraints import check_feasibility


@pytest.fixture(scope="module")
def small_workload():
    return build_workload("cktb", scale=0.15)


class TestSharedInitial:
    def test_feasible_for_both_problems(self, small_workload):
        initial = shared_initial_solution(small_workload, seed=0)
        assert check_feasibility(small_workload.problem, initial).feasible
        assert check_feasibility(small_workload.problem_no_timing, initial).feasible


class TestRunCircuitExperiment:
    @pytest.fixture(scope="class")
    def row(self, small_workload):
        return run_circuit_experiment(
            small_workload, with_timing=True, qbp_iterations=15, seed=0
        )

    def test_row_fields(self, row, small_workload):
        assert row.name == "cktb"
        assert row.with_timing
        assert row.start_cost > 0
        assert row.all_feasible

    def test_no_solver_worsens_start(self, row):
        for solver in ("qbp", "gfm", "gkl"):
            assert row.solvers[solver].cost <= row.start_cost + 1e-9

    def test_improvements_consistent(self, row):
        for cell in row.solvers.values():
            expected = 100.0 * (row.start_cost - cell.cost) / row.start_cost
            assert cell.improvement == pytest.approx(expected)

    def test_to_dict_roundtrip(self, row):
        data = row.to_dict()
        assert data["name"] == "cktb"
        assert set(data["solvers"]) == {"qbp", "gfm", "gkl"}
        assert set(data["solvers"]["qbp"]) == {"cost", "improvement", "cpu"}
        assert ExperimentRow.from_dict(data) == row

    def test_solver_costs_view(self, row):
        costs = row.solver_costs()
        assert set(costs) == {"qbp", "gfm", "gkl"}


class TestRunTable:
    def test_table2_runs_on_subset(self, small_workload):
        rows = run_table(
            2,
            scale=0.15,
            qbp_iterations=10,
            circuits=["cktb"],
            workloads={"cktb": small_workload},
        )
        assert len(rows) == 1
        assert not rows[0].with_timing

    def test_table3_runs_on_subset(self, small_workload):
        rows = run_table(
            3,
            scale=0.15,
            qbp_iterations=10,
            circuits=["cktb"],
            workloads={"cktb": small_workload},
        )
        assert rows[0].with_timing
        assert rows[0].all_feasible

    def test_rejects_bad_table(self):
        with pytest.raises(ValueError):
            run_table(4)


class TestRowSchema:
    @pytest.fixture
    def row(self):
        return ExperimentRow(
            name="x",
            with_timing=True,
            start_cost=100.0,
            solvers={
                "annealing": SolverCell(cost=70.0, improvement=30.0, cpu=0.25),
                "spectral": SolverCell(cost=95.0, improvement=5.0, cpu=0.125),
            },
            all_feasible=True,
            metrics={"counters": {"solver.iterations": 3.0}},
        )

    def test_round_trip_with_nonpaper_solvers(self, row):
        assert ExperimentRow.from_dict(row.to_dict()) == row

    def test_flattened_columns_are_rejected(self, row):
        data = row.to_dict()
        data["annealing_cost"] = 70.0
        with pytest.raises(TypeError):
            ExperimentRow.from_dict(data)

    def test_missing_solvers_is_rejected(self, row):
        data = row.to_dict()
        del data["solvers"]
        with pytest.raises(KeyError):
            ExperimentRow.from_dict(data)


def test_summarize_rows():
    row = ExperimentRow(
        name="x",
        with_timing=False,
        start_cost=100.0,
        solvers={
            "qbp": SolverCell(cost=80.0, improvement=20.0, cpu=1.0),
            "gfm": SolverCell(cost=90.0, improvement=10.0, cpu=0.5),
            "gkl": SolverCell(cost=85.0, improvement=15.0, cpu=2.0),
        },
        all_feasible=True,
    )
    means = summarize_rows([row, row])
    assert means == {"qbp": 20.0, "gfm": 10.0, "gkl": 15.0}
    assert summarize_rows([]) == {}
