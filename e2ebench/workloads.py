"""The benchmark's workloads: what is built in set-up and what one pass runs.

Each workload builds its circuits with ``build_workload`` (set-up), then
runs a *pass* with the seed as the experiment seed, through the
program's public entry points only: ``shared_initial_solution``,
``run_table``, ``supervised_initial_solution`` and
``SolvePipeline().run``.  Entry points are looked up on their modules at
call time, so the traced run's wrappers see every call.

Why each workload exists, and which layers it should stress or bypass,
is recorded in ``BENCHMARK.json`` and in this directory's README.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import repro.eval.harness as harness
import repro.pipeline as pipeline
from repro.eval.paper_data import GKL_OUTER_LOOPS, QBP_ITERATIONS
from repro.eval.workloads import build_workload

from checks import Cell, PassResult, Row

PAPER_METHODS = ("qbp", "gfm", "gkl")
PAPER_CONFIG = {
    "qbp": {"iterations": QBP_ITERATIONS},
    "gfm": {},
    "gkl": {"max_outer_loops": GKL_OUTER_LOOPS},
}


@dataclass(frozen=True)
class Workload:
    name: str
    circuits: Dict[str, float]
    """Circuit name -> ``build_workload`` scale (1.0 = Table I size)."""
    run: Callable[[dict, int, object], PassResult]
    """``run(built, seed, capture)``: one pass over the built inputs."""

    def build(self) -> dict:
        """The circuits as ``eval.run`` builds them: the fixed Table I twins.

        The seed drives the experiment (bootstrap, start ladder, solver
        randomness), not the circuit structure; see the README for why.
        """
        return {
            name: build_workload(name, scale=scale)
            for name, scale in self.circuits.items()
        }


def _fail(result: PassResult, op: str, exc: Exception) -> None:
    result.errors.append((op, f"{op}: {type(exc).__name__}: {exc}"))


def _paper_tables(built: dict, seed: int, capture) -> PassResult:
    """Table II + III as ``eval.run --table all`` runs them, in one process."""
    result = PassResult()
    names = tuple(built)
    initials = {}
    sources = {}
    for name, wl in built.items():
        result.attempted += 1
        before = len(capture.bootstraps)
        try:
            initials[name] = harness.shared_initial_solution(wl, seed=seed)
        except Exception as exc:  # noqa: BLE001 - a failed operation, reported
            _fail(result, f"{name}/start", exc)
            continue
        sources[name] = capture.bootstraps[before:] == [True]
    names = tuple(name for name in names if name in initials)
    for table in (2, 3):
        capture.solves.clear()
        result.attempted += len(names) * len(PAPER_METHODS)
        try:
            rows = harness.run_table(
                table,
                methods=PAPER_METHODS,
                qbp_iterations=QBP_ITERATIONS,
                circuits=names,
                seed=seed,
                workloads=built,
                initials=initials,
                workers=1,
            )
        except Exception as exc:  # noqa: BLE001 - a failed operation, reported
            _fail(result, f"table{table}", exc)
            continue
        calls = iter(capture.solves)
        for table_row in rows:
            wl = built[table_row.name]
            problem = wl.problem if table == 3 else wl.problem_no_timing
            row = Row(
                label=f"table{table}/{table_row.name}",
                start_op=f"{table_row.name}/start",
                circuit=wl.circuit,
                distance=wl.topology.delay_matrix,
                problem=problem,
                start=initials[table_row.name],
                start_from_intended_source=sources[table_row.name],
                reported_start_cost=table_row.start_cost,
            )
            for solver in PAPER_METHODS:
                call = next(calls)
                if call.solver != solver or call.problem is not problem:
                    raise RuntimeError(
                        f"{row.label}: captured {call.solver} call does not "
                        f"match the row's {solver} column"
                    )
                row.cells.append(
                    Cell(solver, call.outcome, table_row.solvers[solver].cost)
                )
            result.rows.append(row)
        missing = len(names) - len(rows)
        if missing:
            op = f"table{table}"
            result.errors.append((op, f"{op}: {missing} circuit row(s) missing"))
    return result


def _solve_from(row: Row, seed: int, result: PassResult) -> None:
    """Run the paper's three methods from ``row.start`` via the pipeline."""
    runner = pipeline.SolvePipeline()
    for solver in PAPER_METHODS:
        result.attempted += 1
        try:
            run = runner.run(
                solver,
                row.problem,
                config=PAPER_CONFIG[solver],
                initial=row.start,
                seed=seed,
            )
        except Exception as exc:  # noqa: BLE001 - a failed operation, reported
            _fail(result, f"{row.label}/{solver}", exc)
            continue
        row.cells.append(Cell(solver, run.outcome))


def _notiming_full(built: dict, seed: int, capture) -> PassResult:
    """Timing-free cktg: the partitioner's start ladder, then qbp/gfm/gkl."""
    result = PassResult()
    for name, wl in built.items():
        problem = wl.problem_no_timing
        result.attempted += 1
        try:
            start, rung = pipeline.supervised_initial_solution(problem, seed)
        except Exception as exc:  # noqa: BLE001 - a failed operation, reported
            _fail(result, f"{name}/start", exc)
            continue
        row = Row(
            label=f"notiming/{name}",
            start_op=f"{name}/start",
            circuit=wl.circuit,
            distance=wl.topology.delay_matrix,
            problem=problem,
            start=start,
            start_from_intended_source=rung == "qbp-bootstrap",
        )
        _solve_from(row, seed, result)
        result.rows.append(row)
    return result


def _timing_warm(built: dict, seed: int, capture) -> PassResult:
    """Timing-constrained ckta from the designer's feasible reference."""
    result = PassResult()
    for name, wl in built.items():
        row = Row(
            label=f"warm/{name}",
            start_op=f"{name}/start",
            circuit=wl.circuit,
            distance=wl.topology.delay_matrix,
            problem=wl.problem,
            start=wl.reference.copy(),
            start_from_intended_source=True,
        )
        _solve_from(row, seed, result)
        result.rows.append(row)
    return result


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper-tables",
            circuits={"cktb": 1.0},
            run=_paper_tables,
        ),
        Workload(
            name="notiming-full",
            circuits={"cktg": 1.0},
            run=_notiming_full,
        ),
        Workload(
            name="timing-warm",
            circuits={"ckta": 1.0},
            run=_timing_warm,
        ),
    )
}

