"""Integration tests: the full pipeline, end to end.

These exercise the library exactly as the examples and the benchmark
harness do — generate, constrain, bootstrap, solve with all three
methods, audit — plus the paper's robustness claims (arbitrary initial
solutions) as cross-module behaviours no unit test covers.
"""

import numpy as np
import pytest

from repro.baselines import gfm_partition, gkl_partition
from repro.core import (
    Assignment,
    ObjectiveEvaluator,
    PartitioningProblem,
    check_feasibility,
)
from repro.eval.harness import run_circuit_experiment, shared_initial_solution
from repro.eval.workloads import build_workload
from repro.netlist import (
    ClusteredCircuitSpec,
    circuit_from_dict,
    circuit_to_dict,
    generate_clustered_circuit,
)
from repro.solvers import bootstrap_initial_solution, solve_qbp
from repro.timing import synthesize_feasible_constraints
from repro.topology import grid_topology


@pytest.fixture(scope="module")
def pipeline():
    """A mid-sized timing-constrained problem with a feasible start."""
    workload = build_workload("cktb", scale=0.2)
    initial = shared_initial_solution(workload, seed=0)
    return workload, initial


class TestFullPipeline:
    def test_three_solvers_same_start_all_feasible(self, pipeline):
        workload, initial = pipeline
        problem = workload.problem
        evaluator = ObjectiveEvaluator(problem)
        start = evaluator.cost(initial)

        qbp = solve_qbp(problem, iterations=25, initial=initial, seed=0)
        gfm = gfm_partition(problem, initial)
        gkl = gkl_partition(problem, initial, max_outer_loops=3)

        for assignment in (
            qbp.best_feasible_assignment,
            gfm.assignment,
            gkl.assignment,
        ):
            assert check_feasibility(problem, assignment).feasible
        assert qbp.best_feasible_cost <= start + 1e-9
        assert gfm.cost <= start + 1e-9
        assert gkl.cost <= start + 1e-9

    def test_relaxing_timing_never_hurts(self, pipeline):
        workload, initial = pipeline
        constrained = solve_qbp(
            workload.problem, iterations=20, initial=initial, seed=0
        )
        relaxed = solve_qbp(
            workload.problem_no_timing, iterations=20, initial=initial, seed=0
        )
        assert relaxed.best_feasible_cost <= constrained.best_feasible_cost + 1e-9

    def test_harness_row_end_to_end(self, pipeline):
        workload, initial = pipeline
        row = run_circuit_experiment(
            workload, with_timing=True, qbp_iterations=10, seed=0, initial=initial
        )
        assert row.all_feasible
        assert row.solvers["qbp"].cost <= row.start_cost


class TestRobustnessClaims:
    """Paper: 'QBP maintained the same kind of good results from any
    arbitrary initial solution.'"""

    def test_qbp_from_multiple_arbitrary_starts(self):
        workload = build_workload("cktb", scale=0.15)
        problem = workload.problem_no_timing
        evaluator = ObjectiveEvaluator(problem)
        finals = []
        for seed in (1, 2, 3):
            result = solve_qbp(problem, iterations=30, seed=seed)
            assert result.best_feasible_assignment is not None
            finals.append(result.best_feasible_cost)
        spread = (max(finals) - min(finals)) / max(min(finals), 1.0)
        assert spread < 0.35  # same kind of result from any start

    def test_bootstrap_equals_designers_flow(self):
        # The full TCM flow: generate, constrain, bootstrap, verify.
        spec = ClusteredCircuitSpec("flow", num_components=50, num_wires=180)
        circuit = generate_clustered_circuit(spec, seed=77)
        topo = grid_topology(2, 2, capacity=circuit.total_size() / 4 * 1.3)
        base = PartitioningProblem(circuit, topo)
        witness = bootstrap_initial_solution(base, seed=0)
        timing = synthesize_feasible_constraints(
            circuit, topo.delay_matrix, witness.part, count=60, seed=0
        )
        problem = PartitioningProblem(circuit, topo, timing=timing)
        start = bootstrap_initial_solution(problem, seed=1)
        assert check_feasibility(problem, start).feasible


class TestSerializationRoundTripInPipeline:
    def test_solve_after_json_roundtrip(self, pipeline):
        workload, initial = pipeline
        restored = circuit_from_dict(circuit_to_dict(workload.circuit))
        problem = PartitioningProblem(
            restored, workload.topology, timing=workload.timing
        )
        result = solve_qbp(problem, iterations=5, initial=initial, seed=0)
        evaluator = ObjectiveEvaluator(workload.problem)
        # Identical circuit -> identical costs for the same assignment.
        assert evaluator.cost(result.assignment) == pytest.approx(
            ObjectiveEvaluator(problem).cost(result.assignment)
        )


class TestDeterministicReproduction:
    def test_full_row_is_reproducible(self):
        workload = build_workload("cktb", scale=0.12)
        rows = [
            run_circuit_experiment(
                workload, with_timing=True, qbp_iterations=8, seed=0
            )
            for _ in range(2)
        ]
        assert rows[0].solver_costs() == rows[1].solver_costs()
