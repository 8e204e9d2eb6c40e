"""Fixtures for the runtime-layer tests (budgets, checkpoints, faults)."""

from __future__ import annotations

import pytest

from repro.core.problem import PartitioningProblem
from repro.netlist.generate import ClusteredCircuitSpec, generate_clustered_circuit
from repro.solvers.qbp import bootstrap_initial_solution
from repro.solvers.greedy import greedy_feasible_assignment
from repro.timing.constraints import synthesize_feasible_constraints
from repro.topology.grid import grid_topology


@pytest.fixture(scope="module")
def timed_problem() -> PartitioningProblem:
    """A 32-component timing-constrained problem, small enough to solve fast."""
    spec = ClusteredCircuitSpec(
        "runtime", num_components=32, num_wires=120, num_clusters=4
    )
    circuit = generate_clustered_circuit(spec, seed=11)
    topo = grid_topology(2, 2, capacity=circuit.total_size() / 4 * 1.3)
    base = PartitioningProblem(circuit, topo)
    ref = greedy_feasible_assignment(base, seed=1)
    timing = synthesize_feasible_constraints(
        circuit, topo.delay_matrix, ref.part, count=40, min_budget=1.0, seed=3
    )
    return PartitioningProblem(circuit, topo, timing=timing)


@pytest.fixture(scope="module")
def feasible_start(timed_problem):
    """A fully C1+C2-feasible start for ``timed_problem``."""
    return bootstrap_initial_solution(timed_problem, seed=5)
