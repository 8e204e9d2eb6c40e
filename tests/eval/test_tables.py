"""Tests for repro.eval.tables and repro.utils.tables rendering."""

from repro.eval.harness import ExperimentRow, SolverCell
from repro.eval.paper_data import PAPER_TABLE2
from repro.eval.tables import render_table1, render_table23
from repro.netlist.stats import CircuitStats
from repro.utils.tables import TextTable, format_cell


def stats(name="ckta"):
    return CircuitStats(
        name=name,
        num_components=339,
        num_wires=8200.0,
        num_connected_pairs=4000,
        total_size=1000.0,
        min_size=1.0,
        max_size=100.0,
        size_dynamic_range=100.0,
        mean_degree=10.0,
        max_wire_multiplicity=12.0,
    )


def row(name="ckta"):
    return ExperimentRow(
        name=name,
        with_timing=False,
        start_cost=20756.0,
        solvers={
            "qbp": SolverCell(cost=17457.0, improvement=15.9, cpu=86.8),
            "gfm": SolverCell(cost=18894.0, improvement=9.0, cpu=12.2),
            "gkl": SolverCell(cost=17526.0, improvement=15.6, cpu=544.3),
        },
        all_feasible=True,
    )


class TestTextTable:
    def test_alignment(self):
        t = TextTable(["a", "bbbb"])
        t.add_row([1, 2])
        t.add_row([100, 2000])
        lines = t.render().splitlines()
        assert len({line.index("|") for line in lines if "|" in line}) == 1

    def test_title(self):
        t = TextTable(["x"], title="My Table")
        t.add_row([1])
        assert t.render().startswith("My Table")

    def test_row_width_checked(self):
        t = TextTable(["a", "b"])
        try:
            t.add_row([1])
        except ValueError as err:
            assert "2 columns" in str(err)
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")

    def test_format_cell(self):
        assert format_cell(1.25) == "1.2"
        assert format_cell(7) == "7"
        assert format_cell(True) == "yes"
        assert format_cell(float("nan")) == "-"
        assert format_cell("x") == "x"


class TestRenderTable1:
    def test_contains_circuit_and_paper_columns(self):
        out = render_table1([(stats(), 3464)])
        assert "ckta" in out
        assert "339" in out
        assert "8200" in out
        assert "3464" in out
        # Published reference column present:
        assert "339 / 8200 / 3464" in out

    def test_unknown_circuit_gets_dash(self):
        out = render_table1([(stats("mystery"), 5)])
        assert "-" in out


class TestRenderTable23:
    def test_without_paper(self):
        out = render_table23([row()], with_timing=False, paper=None)
        assert "II." in out
        assert "17457" in out
        assert "(paper)" not in out

    def test_with_paper_rows(self):
        out = render_table23([row()], with_timing=False, paper=PAPER_TABLE2)
        assert "(paper)" in out
        assert "20756" in out

    def test_timing_title(self):
        out = render_table23([row()], with_timing=True, paper=None)
        assert "III." in out
