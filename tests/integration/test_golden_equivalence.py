"""Golden equivalence: the engine refactor changed no solver output.

The committed ``data/golden_equivalence.json`` was captured by
``scripts/capture_golden.py`` *before* the solver/baseline stack moved
onto the shared engine layer (:mod:`repro.engine`).  These tests replay
exactly the same fixed-seed runs and assert bit-identical assignments
and costs - same seed, same assignment, same cost, to the last bit.

If one of these fails, the refactor changed numerical behaviour; that
is a bug unless the change is intentional, in which case re-run the
capture script and commit the new goldens with an explanation.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.baselines.annealing import annealing_partition
from repro.baselines.gfm import gfm_partition
from repro.baselines.gkl import gkl_partition
from repro.eval.harness import shared_initial_solution
from repro.eval.workloads import build_workload
from repro.solvers.qbp import solve_qbp, solve_qbp_multistart

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_equivalence.json"

CASES = ("ckta-timing", "ckta-no-timing", "cktb-timing")


@pytest.fixture(scope="module")
def golden():
    payload = json.loads(GOLDEN_PATH.read_text())
    assert payload["format"] == "golden-equivalence-v1"
    return payload


@pytest.fixture(scope="module")
def replayed(golden):
    """One replay of every case, shared by the per-solver assertions."""
    params = golden["params"]
    out = {}
    for case in CASES:
        circuit, _, flavor = case.partition("-")
        workload = build_workload(circuit, scale=params["scale"])
        problem = (
            workload.problem if flavor == "timing" else workload.problem_no_timing
        )
        initial = shared_initial_solution(workload, seed=params["initial_seed"])
        out[case] = {"problem": problem, "initial": initial}
    return out


def _case(golden, replayed, name):
    return golden["cases"][name], replayed[name]


@pytest.mark.parametrize("case", CASES)
def test_shared_initial_is_identical(golden, replayed, case):
    expected, actual = _case(golden, replayed, case)
    assert actual["initial"].part.tolist() == expected["initial"]


@pytest.mark.parametrize("case", CASES)
def test_solve_qbp_is_bit_identical(golden, replayed, case):
    expected, actual = _case(golden, replayed, case)
    params = golden["params"]
    result = solve_qbp(
        actual["problem"],
        iterations=params["qbp_iterations"],
        initial=actual["initial"],
        seed=3,
    )
    assert result.assignment.part.tolist() == expected["qbp"]["part"]
    assert result.cost == expected["qbp"]["cost"]
    assert result.penalized_cost == expected["qbp"]["penalized_cost"]
    if expected["qbp"]["best_feasible_cost"] is None:
        assert result.best_feasible_assignment is None
    else:
        assert result.best_feasible_cost == expected["qbp"]["best_feasible_cost"]


@pytest.mark.parametrize("case", CASES)
def test_multistart_is_bit_identical(golden, replayed, case):
    expected, actual = _case(golden, replayed, case)
    params = golden["params"]
    result = solve_qbp_multistart(
        actual["problem"],
        restarts=params["multistart_restarts"],
        iterations=params["multistart_iterations"],
        seed=5,
    )
    assert result.assignment.part.tolist() == expected["multistart"]["part"]
    assert result.cost == expected["multistart"]["cost"]
    assert result.penalized_cost == expected["multistart"]["penalized_cost"]


@pytest.mark.parametrize("case", CASES)
def test_gfm_is_bit_identical(golden, replayed, case):
    expected, actual = _case(golden, replayed, case)
    result = gfm_partition(actual["problem"], actual["initial"])
    assert result.assignment.part.tolist() == expected["gfm"]["part"]
    assert result.cost == expected["gfm"]["cost"]


@pytest.mark.parametrize("case", CASES)
def test_gkl_is_bit_identical(golden, replayed, case):
    expected, actual = _case(golden, replayed, case)
    result = gkl_partition(actual["problem"], actual["initial"])
    assert result.assignment.part.tolist() == expected["gkl"]["part"]
    assert result.cost == expected["gkl"]["cost"]


@pytest.mark.parametrize("case", CASES)
def test_annealing_is_bit_identical(golden, replayed, case):
    expected, actual = _case(golden, replayed, case)
    result = annealing_partition(
        actual["problem"], actual["initial"], temperature_steps=8, seed=7
    )
    assert result.assignment.part.tolist() == expected["annealing"]["part"]
    assert result.cost == expected["annealing"]["cost"]


class TestPipelineReplaysGoldens:
    """The registry/pipeline dispatch path adds nothing to the numbers.

    Every golden case replayed through ``SolvePipeline`` must reproduce
    the direct-call goldens bit-identically - the adapters are pure
    plumbing.  The multistart replay also runs with a 2-process pool to
    pin the parallel path to the same bits.
    """

    @pytest.mark.parametrize("case", CASES)
    def test_qbp_via_pipeline_is_bit_identical(self, golden, replayed, case):
        from repro.pipeline import SolvePipeline

        expected, actual = _case(golden, replayed, case)
        params = golden["params"]
        run = SolvePipeline().run(
            "qbp",
            actual["problem"],
            config={"iterations": params["qbp_iterations"]},
            initial=actual["initial"],
            seed=3,
        )
        result = run.outcome
        assert result.assignment.part.tolist() == expected["qbp"]["part"]
        assert result.cost == expected["qbp"]["cost"]
        assert result.penalized_cost == expected["qbp"]["penalized_cost"]
        if expected["qbp"]["best_feasible_cost"] is None:
            assert result.best_feasible_assignment is None
        else:
            assert (
                result.best_feasible_cost == expected["qbp"]["best_feasible_cost"]
            )

    @pytest.mark.parametrize("workers", [None, 2])
    @pytest.mark.parametrize("case", CASES)
    def test_multistart_via_pipeline_is_bit_identical(
        self, golden, replayed, case, workers
    ):
        from repro.parallel.pool import supports_process_pool
        from repro.pipeline import SolvePipeline

        if workers == 2 and not supports_process_pool():
            pytest.skip("platform lacks fork")
        expected, actual = _case(golden, replayed, case)
        params = golden["params"]
        run = SolvePipeline(workers=workers).run(
            "qbp",
            actual["problem"],
            config={
                "restarts": params["multistart_restarts"],
                "iterations": params["multistart_iterations"],
            },
            seed=5,
        )
        result = run.outcome
        assert result.assignment.part.tolist() == expected["multistart"]["part"]
        assert result.cost == expected["multistart"]["cost"]
        assert result.penalized_cost == expected["multistart"]["penalized_cost"]

    @pytest.mark.parametrize("solver", ["gfm", "gkl"])
    @pytest.mark.parametrize("case", CASES)
    def test_baselines_via_pipeline_are_bit_identical(
        self, golden, replayed, case, solver
    ):
        from repro.pipeline import SolvePipeline

        expected, actual = _case(golden, replayed, case)
        run = SolvePipeline().run(
            solver, actual["problem"], initial=actual["initial"]
        )
        result = run.outcome
        assert result.assignment.part.tolist() == expected[solver]["part"]
        assert result.cost == expected[solver]["cost"]
