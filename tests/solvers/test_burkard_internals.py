"""White-box tests of the Burkard solver internals.

The sparse STEP 3 (eta) computation and the STEP 2 (omega) bounds are
the paper's Section 4.3 machinery; these tests pin them against the
dense definitions on instances small enough to materialise ``Q_hat``.
"""

import itertools

import numpy as np
import pytest

from repro.core.assignment import Assignment
from repro.core.constraints import TimingIndex, capacity_violations
from repro.core.embedding import embed_timing
from repro.core.objective import ObjectiveEvaluator
from repro.core.problem import PartitioningProblem
from repro.core.qmatrix import build_q_dense
from repro.netlist.circuit import Circuit
from repro.solvers.qbp import IterationState, resolve_penalty
from repro.timing.constraints import TimingConstraints
from repro.topology.grid import grid_topology


@pytest.fixture
def instance() -> PartitioningProblem:
    """5 components, 3 partitions, asymmetric wires, timing constraints."""
    rng = np.random.default_rng(7)
    circuit = Circuit("internals")
    for j in range(5):
        circuit.add_component(f"u{j}", size=float(rng.uniform(0.5, 2.0)))
    circuit.add_wire(0, 1, 3.0)
    circuit.add_wire(1, 0, 1.0)
    circuit.add_wire(1, 2, 2.0)
    circuit.add_wire(3, 4, 4.0)
    circuit.add_wire(2, 4, 1.0)
    topo = grid_topology(1, 3, capacity=6.0)
    tc = TimingConstraints(5)
    tc.add(0, 1, 1.0, symmetric=True)
    tc.add(3, 4, 1.0, symmetric=True)
    return PartitioningProblem(circuit, topo, timing=tc)


def dense_qhat(problem, penalty):
    return embed_timing(build_q_dense(problem), problem, penalty=penalty)


def make_state(problem, eta_mode, penalty=50.0):
    evaluator = ObjectiveEvaluator(problem)
    return IterationState(problem, evaluator, penalty, eta_mode)


class TestEtaAgainstDense:
    @pytest.mark.parametrize("eta_mode", ["burkard", "symmetric"])
    def test_eta_matches_dense_product(self, instance, eta_mode):
        penalty = 50.0
        q_hat = dense_qhat(instance, penalty)
        state = make_state(instance, eta_mode, penalty)
        n, m = instance.num_components, instance.num_partitions
        rng = np.random.default_rng(0)
        for _ in range(15):
            part = rng.integers(0, m, size=n)
            u = Assignment(part, m).to_y_vector().astype(float)
            eta = state.eta(part)
            col_sums = (u @ q_hat).reshape(n, m)  # eta_s = sum_r qhat[r,s] u_r
            if eta_mode == "burkard":
                expected = col_sums
            else:
                row_sums = (q_hat @ u).reshape(n, m)
                expected = col_sums + row_sums
            assert np.allclose(eta, expected), part


class TestOmegaBound:
    @pytest.mark.parametrize("eta_mode", ["burkard"])
    def test_omega_upper_bounds_row_activations(self, instance, eta_mode):
        """Eq. (2): omega_r >= sum_s qhat[r, s] y_s for every y in S."""
        penalty = 50.0
        q_hat = dense_qhat(instance, penalty)
        state = make_state(instance, eta_mode, penalty)
        n, m = instance.num_components, instance.num_partitions
        sizes, caps = instance.sizes(), instance.capacities()
        omega_flat = np.zeros(n * m)
        for j in range(n):
            for i in range(m):
                omega_flat[i + j * m] = state.omega[j, i]
        for combo in itertools.product(range(m), repeat=n):
            a = Assignment(list(combo), m)
            if capacity_violations(a, sizes, caps):
                continue
            y = a.to_y_vector().astype(float)
            row_activations = q_hat @ y
            assert (omega_flat + 1e-9 >= row_activations).all(), combo


class TestTimingMoveMask:
    """The QBP trust mask ``conflict_rows(anchor) == 0``."""

    def test_matches_timing_index(self, instance):
        index = TimingIndex(instance.timing, instance.delay_matrix)
        rng = np.random.default_rng(1)
        for _ in range(10):
            part = rng.integers(0, 3, size=5)
            mask = index.conflict_rows(part) == 0
            for j in range(5):
                for i in range(3):
                    assert mask[j, i] == index.move_is_feasible(part, j, i)

    def test_no_constraints_all_true(self, small_problem):
        index = TimingIndex(small_problem.timing, small_problem.delay_matrix)
        mask = index.conflict_rows(np.zeros(small_problem.num_components, dtype=int)) == 0
        assert mask.shape == (small_problem.num_components, small_problem.num_partitions)
        assert mask.all()


class TestResolvePenaltyScaling:
    def test_auto_scales_with_beta(self, instance):
        base = resolve_penalty(instance, None)
        scaled = PartitioningProblem(
            instance.circuit, instance.topology, instance.timing, beta=2.0
        )
        assert resolve_penalty(scaled, None) > base
