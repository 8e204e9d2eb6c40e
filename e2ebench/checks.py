"""Correctness checks on what one pass of a workload returned.

Every assignment a solver reports is re-checked against the problem it
was solved for: C1 (capacity) and, where the problem has timing
constraints, C2, with :func:`repro.core.constraints.check_feasibility`.
Its wire length is recomputed here as ``sum a[j1,j2] * D[A(j1),A(j2)]``
straight from the circuit's wire list and the grid's distance matrix,
without the program's ``ObjectiveEvaluator`` or ``DeltaCache``, and
compared with the cost the program reported.  No method may end worse
than its start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.constraints import check_feasibility

STOP_OK = "completed"


def wire_length(circuit, distance: np.ndarray, part) -> float:
    """Total wire length of ``part``: every wire bundle, weight times distance."""
    part = np.asarray(part)
    total = 0.0
    for wire in circuit.wires():
        total += wire.weight * float(distance[part[wire.source], part[wire.target]])
    return total


def same_cost(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


@dataclass
class Cell:
    """One solver's result on one row."""

    solver: str
    outcome: Any
    reported_cost: Optional[float] = None
    """The cost a table row printed for this solver, when there is a row."""


@dataclass
class Row:
    """One circuit and problem variant: a shared start and every solver on it."""

    label: str
    start_op: str
    """The operation that made the start (one per circuit, shared by rows)."""
    circuit: Any
    distance: np.ndarray
    problem: Any
    start: Any
    start_from_intended_source: bool
    reported_start_cost: Optional[float] = None
    cells: List[Cell] = field(default_factory=list)


@dataclass
class PassResult:
    """Everything one pass produced, plus the failures found in it."""

    rows: List[Row] = field(default_factory=list)
    attempted: int = 0
    errors: List[Tuple[str, str]] = field(default_factory=list)
    """``(operation, message)`` per failure: exception, stop reason or check."""

    costs: Dict[str, float] = field(default_factory=dict)
    """Recomputed wire length summed over rows, per solver and ``start``."""


def check_pass(result: PassResult) -> PassResult:
    """Run every check on ``result`` and fill in its recomputed costs."""
    costs: Dict[str, float] = {"start": 0.0}
    for row in result.rows:
        where = row.label
        start_len = wire_length(row.circuit, row.distance, row.start.part)
        costs["start"] += start_len
        report = check_feasibility(row.problem, row.start)
        if not report.feasible:
            result.errors.append(
                (row.start_op, f"{where}: start is infeasible ({report.summary()})")
            )
        if row.reported_start_cost is not None and not same_cost(
            row.reported_start_cost, start_len
        ):
            result.errors.append(
                (
                    row.start_op,
                    f"{where}: start cost reported {row.reported_start_cost!r}, "
                    f"recomputed {start_len!r}",
                )
            )
        for cell in row.cells:
            final = check_cell(row, cell, start_len, result.errors)
            costs[cell.solver] = costs.get(cell.solver, 0.0) + final
    result.costs = costs
    return result


def check_cell(
    row: Row, cell: Cell, start_len: float, errors: List[Tuple[str, str]]
) -> float:
    """Check one solver result; returns the recomputed wire length it ends at."""
    where = f"{row.label}/{cell.solver}"
    outcome = cell.outcome
    problems: List[str] = []
    if outcome.stop_reason != STOP_OK:
        problems.append(f"stop reason {outcome.stop_reason!r}")
    headline = wire_length(row.circuit, row.distance, outcome.assignment.part)
    if not same_cost(float(outcome.cost), headline):
        problems.append(
            f"outcome cost {outcome.cost!r}, recomputed {headline!r}"
        )
    final = outcome.solution if outcome.solution is not None else row.start
    final_len = wire_length(row.circuit, row.distance, final.part)
    report = check_feasibility(row.problem, final)
    if not report.feasible:
        problems.append(f"reported assignment infeasible ({report.summary()})")
    if final_len > start_len + 1e-6:
        problems.append(f"ends at {final_len!r}, worse than start {start_len!r}")
    if cell.reported_cost is not None and not same_cost(cell.reported_cost, final_len):
        problems.append(
            f"row reports {cell.reported_cost!r}, recomputed {final_len!r}"
        )
    errors.extend((where, f"{where}: {p}") for p in problems)
    return final_len
