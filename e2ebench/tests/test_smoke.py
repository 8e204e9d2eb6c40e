"""Smoke test of the benchmark itself, on a tiny input.

Run from the repository root::

    python -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.core.assignment import Assignment  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 3

# The paper-tables pass on a 32-component cktb: every layer but the
# full-size timings, in about a second.
TINY = dataclasses.replace(workloads.WORKLOADS["paper-tables"], circuits={"cktb": 0.05})


@pytest.fixture(scope="module")
def tiny_pass():
    built = TINY.build()
    capture = tracing.Capture()
    tracer = tracing.Tracer("smoke")
    with capture.installed(), tracer.measure():
        result = TINY.run(built, SEED, capture)
    return result, tracer


def test_spec_names_units_and_workloads():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"][1:] == ["e2ebench/run.py"]


def test_checks_pass_on_a_real_pass(tiny_pass):
    result, _ = tiny_pass
    checks.check_pass(result)
    assert result.errors == []
    assert result.attempted == 7  # one bootstrap + 2 tables x 3 solvers
    assert len(result.rows) == 2
    assert set(result.costs) == {"start", "qbp", "gfm", "gkl"}
    for solver in ("qbp", "gfm", "gkl"):
        assert 0 < result.costs[solver] <= result.costs["start"]


def test_wire_length_matches_the_program(tiny_pass):
    from repro.core.objective import ObjectiveEvaluator

    row = tiny_pass[0].rows[0]
    ours = checks.wire_length(row.circuit, row.distance, row.start.part)
    assert ours == pytest.approx(ObjectiveEvaluator(row.problem).cost(row.start))


def _corrupted(result, cell_index, **changes):
    copy = dataclasses.replace(result, rows=[], errors=[], costs={})
    for row in result.rows:
        copy.rows.append(dataclasses.replace(row, cells=list(row.cells)))
    row = copy.rows[-1]
    cell = row.cells[cell_index]
    row.cells[cell_index] = dataclasses.replace(cell, **changes)
    return copy


def test_corrupted_assignment_is_caught(tiny_pass):
    result, _ = tiny_pass
    row = result.rows[-1]
    cell = row.cells[1]  # gfm: its solution is its headline assignment
    piled = Assignment(np.zeros(row.problem.num_components, dtype=int), 16)
    bad_outcome = dataclasses.replace(cell.outcome, assignment=piled)
    bad = checks.check_pass(_corrupted(result, 1, outcome=bad_outcome))
    messages = [message for _, message in bad.errors]
    assert any("infeasible" in m for m in messages), messages
    assert any("outcome cost" in m for m in messages), messages
    assert {op for op, _ in bad.errors} == {f"{row.label}/gfm"}


def test_misreported_cost_is_caught(tiny_pass):
    result, _ = tiny_pass
    cell = result.rows[0].cells[0]
    bad = checks.check_pass(
        _corrupted(result, 0, reported_cost=cell.reported_cost - 1.0)
    )
    assert any("row reports" in message for _, message in bad.errors)


def test_layer_metrics_cover_the_spec(tiny_pass):
    _, tracer = tiny_pass
    metrics = tracer.layer_metrics()
    assert metrics["bootstrap.calls"] == 1
    assert metrics["qbp.iterations"] == 200
    assert metrics["gap.calls"] > 0 and metrics["delta.apply.calls"] > 0
    self_total = sum(metrics[f"self_s.{layer}"] for layer in tracing.LAYERS)
    assert self_total + metrics["unattributed_s"] == pytest.approx(
        metrics["traced_wall_s"]
    )
    counts = tracing.deterministic_counts(metrics)
    assert {"gap.calls", "repair.calls", "merge.calls", "eta.calls"} <= set(counts)
    assert "delta.moves" in counts and "gap.s" not in counts


def _main(monkeypatch, tmp_path, capsys, trace):
    monkeypatch.setattr(run, "pin_environment", lambda: None)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(workloads.WORKLOADS, "smoke", dataclasses.replace(TINY, name="smoke"))
    argv = ["--workload", "smoke", "--seed", str(SEED), "--seconds", "0.1"]
    code = run.main(argv + ["--trace", str(trace)])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_main_reports_every_named_metric(monkeypatch, tmp_path, capsys, trace, section):
    code, result = _main(monkeypatch, tmp_path, capsys, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 7
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for metric in SPEC[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        assert result["metrics"]["count_mismatches"]["value"] == 0
        assert (tmp_path / f"trace-smoke-seed{SEED}.jsonl").is_file()


def test_changed_count_is_flagged(monkeypatch, tmp_path, capsys):
    _main(monkeypatch, tmp_path, capsys, 1)
    record_path = tmp_path / f"counts-smoke-seed{SEED}.json"
    record = json.loads(record_path.read_text())
    record["counts"]["gap.calls"] += 1
    record_path.write_text(json.dumps(record))
    code, result = _main(monkeypatch, tmp_path, capsys, 1)
    assert code == 0
    assert result["metrics"]["count_mismatches"]["value"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "paper-tables",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
