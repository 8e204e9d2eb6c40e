"""Tests for scripts/update_experiments.py (EXPERIMENTS.md generator)."""

import importlib.util
import json
import pathlib
import sys

import pytest

SCRIPT = (
    pathlib.Path(__file__).resolve().parents[2] / "scripts" / "update_experiments.py"
)


@pytest.fixture
def updater():
    spec = importlib.util.spec_from_file_location("update_experiments", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_row(name, qbp=80.0, gfm=90.0, gkl=85.0):
    start = 100.0
    return {
        "name": name,
        "with_timing": False,
        "start_cost": start,
        "solvers": {
            solver: {
                "cost": cost,
                "improvement": 100 * (start - cost) / start,
                "cpu": cpu,
            }
            for solver, cost, cpu in (
                ("qbp", qbp, 1.0),
                ("gfm", gfm, 0.5),
                ("gkl", gkl, 2.0),
            )
        },
        "all_feasible": True,
    }


NAMES = ["ckta", "cktb", "cktc", "cktd", "ckte", "cktf", "cktg"]


class TestUpdater:
    def test_renders_and_replaces_block(self, updater, tmp_path, monkeypatch):
        results = {
            "table2": [fake_row(n) for n in NAMES],
            "table3": [fake_row(n, qbp=85.0) for n in NAMES],
        }
        results_path = tmp_path / "r.json"
        results_path.write_text(json.dumps(results))
        doc = tmp_path / "EXPERIMENTS.md"
        doc.write_text(
            "# header\n\n<!-- RESULTS:BEGIN -->\nplaceholder\n<!-- RESULTS:END -->\n\ntail\n"
        )
        monkeypatch.setattr(
            sys, "argv", ["x", str(results_path), str(doc)]
        )
        assert updater.main() == 0
        text = doc.read_text()
        assert "placeholder" not in text
        assert "Table II — without timing" in text
        assert "Shape analysis" in text
        assert "*(paper)*" in text
        assert text.startswith("# header")
        assert text.rstrip().endswith("tail")

    def test_shape_analysis_wins(self, updater):
        rows = [fake_row(n) for n in NAMES]  # QBP best everywhere
        out = updater.shape_analysis(rows, rows)
        assert "best-quality wins: QBP 7, GFM 0, GKL 0" in out
        assert "violation-free: yes" in out
