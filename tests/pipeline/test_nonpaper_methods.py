"""Non-paper solvers through the harness: run_table --methods end to end."""

from __future__ import annotations

import pytest

from repro.eval.harness import ExperimentRow, run_table
from repro.eval.run import main as eval_main
from repro.pipeline import UnknownSolverError

METHODS = ["qbp", "annealing", "spectral"]


class TestRunTableMethods:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_table(
            2,
            scale=0.1,
            qbp_iterations=5,
            circuits=["ckta"],
            methods=METHODS,
        )

    def test_rows_carry_the_requested_method_set(self, rows):
        assert [list(r.solvers) for r in rows] == [METHODS]

    def test_outcomes_are_feasible(self, rows):
        assert rows[0].all_feasible

    def test_timings_round_trip_strictly(self, rows):
        row = rows[0]
        assert ExperimentRow.from_dict(row.to_dict()) == row
        assert all(row.solvers[name].cpu >= 0.0 for name in METHODS)

    def test_unknown_method_raises_with_the_registered_list(self):
        with pytest.raises(UnknownSolverError, match="registered solvers"):
            run_table(2, scale=0.1, circuits=["ckta"], methods=["magic"])


class TestEvalRunCli:
    def test_methods_flag_runs_nonpaper_solvers(self, capsys):
        rc = eval_main(
            [
                "--table",
                "2",
                "--scale",
                "0.1",
                "--circuits",
                "ckta",
                "--methods",
                "qbp",
                "annealing",
                "--iterations",
                "5",
                "--no-paper",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "ANNEALING final" in out
        assert "mean improvement: QBP" in out
        assert "ANNEALING" in out.split("mean improvement:")[1]

    def test_unknown_method_is_a_one_line_cli_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            eval_main(["--table", "2", "--methods", "magic"])
        assert err.value.code == 2
        captured = capsys.readouterr().err
        assert "magic" in captured
        assert "registered solvers" in captured
