"""MCM/TCM re-partitioning (paper Section 2.2.1, refs [2] and [13]).

The high-level TCM design flow: an experienced designer manually assigns
functional blocks to chip slots; the intuition-based assignment violates
timing and capacity constraints, and the tool must find a *legal*
assignment that minimally deviates from the designer's intent.  The
deviation of one component is the Manhattan distance between its initial
and final slots, weighted by its size (bigger blocks are worse to move);
the objective is the sum over components.

With ``p[i, j] = s_j * manhattan(i, A_initial(j))`` the linear term of
``PP(1, 0)`` *is* the total deviation, so the whole application is one
problem construction plus a QBP solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.assignment import Assignment
from repro.core.constraints import check_feasibility
from repro.core.problem import PartitioningProblem
from repro.netlist.circuit import Circuit
from repro.solvers.qbp import BurkardResult, solve_qbp
from repro.timing.constraints import TimingConstraints
from repro.topology.partition import Topology
from repro.utils.rng import RandomSource


@dataclass(frozen=True)
class McmResult:
    """Outcome of an MCM/TCM re-partitioning run."""

    assignment: Assignment
    total_deviation: float
    moved_components: int
    feasible: bool
    solver_result: BurkardResult


def deviation_cost_matrix(
    topology: Topology, initial: Assignment, sizes: np.ndarray
) -> np.ndarray:
    """The ``M x N`` deviation matrix ``p[i, j] = s_j * manhattan(i, A0(j))``.

    Requires every partition to carry a planar ``position`` (grid
    topologies do).
    """
    positions = topology.positions()
    if positions is None:
        raise ValueError(
            "deviation costs need partition positions; use a grid/positioned topology"
        )
    sizes = np.asarray(sizes, dtype=float)
    if sizes.shape != (initial.num_components,):
        raise ValueError(
            f"sizes must have length {initial.num_components}, got {sizes.shape}"
        )
    initial_pos = positions[initial.part]  # (N, 2)
    manhattan = np.abs(positions[:, None, :] - initial_pos[None, :, :]).sum(axis=2)
    return manhattan * sizes[None, :]


def repartition_mcm(
    circuit: Circuit,
    topology: Topology,
    initial: Assignment,
    timing: Optional[TimingConstraints] = None,
    *,
    iterations: int = 100,
    seed: RandomSource = None,
    penalty=None,
) -> McmResult:
    """Legalise a designer's initial assignment with minimum deviation.

    Builds ``PP(1, 0)`` with the size-weighted Manhattan deviation as the
    linear cost and solves it with the generalized Burkard heuristic in
    ``"diagonal"`` eta mode (a pure-linear objective must charge
    candidates their own diagonal cost; see
    :func:`repro.solvers.qbp.solve_qbp`).

    The designer's ``initial`` may violate C1 and C2 - that is the
    point - so the solver starts from its own feasible construction.
    """
    p = deviation_cost_matrix(topology, initial, circuit.sizes())
    problem = PartitioningProblem(
        circuit,
        topology,
        timing=timing,
        linear_cost=p,
        alpha=1.0,
        beta=0.0,
        name=f"{circuit.name}-mcm",
    )
    result = solve_qbp(
        problem,
        iterations=iterations,
        eta_mode="diagonal",
        seed=seed,
        penalty=penalty,
    )
    chosen = result.best_feasible_assignment or result.assignment
    evaluator_cost = float(
        p[chosen.part, np.arange(chosen.num_components)].sum()
    )
    feasible = check_feasibility(problem, chosen).feasible
    moved = int((chosen.part != initial.part).sum())
    return McmResult(
        assignment=chosen,
        total_deviation=evaluator_cost,
        moved_components=moved,
        feasible=feasible,
        solver_result=result,
    )
