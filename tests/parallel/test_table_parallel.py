"""Parallel run_table: row equivalence, out-of-order checkpoint resume."""

from __future__ import annotations

import pytest

from repro.eval.harness import TableCheckpoint, run_table
from repro.obs.telemetry import Telemetry, use_telemetry
from repro.parallel.pool import supports_process_pool

needs_fork = pytest.mark.skipif(
    not supports_process_pool(), reason="platform lacks fork"
)

# Two small circuits keep each solve under a second while still
# exercising a genuine multi-task fan-out.
RUN = dict(scale=0.1, qbp_iterations=8, circuits=["ckta", "cktb"], seed=0)


def deterministic_fields(row):
    return (
        row.name,
        row.with_timing,
        row.start_cost,
        row.solver_costs(),
        row.all_feasible,
        row.stop_reason,
    )


@needs_fork
class TestRowEquivalence:
    def test_parallel_rows_match_serial(self):
        serial = run_table(2, workers=1, **RUN)
        parallel = run_table(2, workers=2, **RUN)
        assert [deterministic_fields(r) for r in serial] == [
            deterministic_fields(r) for r in parallel
        ]

    def test_rows_come_back_in_canonical_order(self):
        rows = run_table(2, workers=2, **RUN)
        assert [r.name for r in rows] == ["ckta", "cktb"]

    def test_iteration_counters_match(self):
        def totals(workers):
            tel = Telemetry.enabled_default()
            with use_telemetry(tel):
                run_table(2, workers=workers, **RUN)
            return tel.metrics_snapshot()["counters"].get("solver.iterations")

        assert totals(1) == totals(2)


@needs_fork
class TestParallelCheckpoint:
    def test_checkpoint_roundtrip(self, tmp_path):
        first = run_table(2, workers=2, checkpoint_dir=tmp_path, **RUN)
        resumed = run_table(2, workers=2, checkpoint_dir=tmp_path, **RUN)
        assert [deterministic_fields(r) for r in first] == [
            deterministic_fields(r) for r in resumed
        ]

    def test_out_of_order_completion_resumes_correctly(self, tmp_path):
        # Simulate a run that completed only the LAST circuit before
        # dying (parallel workers finish in any order): pre-record
        # cktb's row, then resume.  The resumed sweep must run only
        # ckta and still return rows in canonical order, identical to
        # an uninterrupted run.
        reference = run_table(2, workers=1, **RUN)
        params = {
            "scale": 0.1,
            "qbp_iterations": 8,
            "seed": 0,
            "methods": ["qbp", "gfm", "gkl"],
        }
        checkpoint = TableCheckpoint(tmp_path, 2, params=params)
        checkpoint.record(reference[1])  # cktb only

        resumed = run_table(2, workers=2, checkpoint_dir=tmp_path, **RUN)
        assert [r.name for r in resumed] == ["ckta", "cktb"]
        assert [deterministic_fields(r) for r in resumed] == [
            deterministic_fields(r) for r in reference
        ]

    def test_parallel_records_all_completed_rows(self, tmp_path):
        run_table(2, workers=2, checkpoint_dir=tmp_path, **RUN)
        checkpoint = TableCheckpoint(
            tmp_path,
            2,
            params={
                "scale": 0.1,
                "qbp_iterations": 8,
                "seed": 0,
                "methods": ["qbp", "gfm", "gkl"],
            },
        )
        assert checkpoint.completed("ckta") is not None
        assert checkpoint.completed("cktb") is not None

