"""Smoke tests for the move-scan scaling benchmark (benchmarks/bench_scaling.py).

Runs tiny sweeps so tier-1 proves the benchmark stays runnable and its
``bench-scaling-v1`` output stays compatible with the check_bench gate;
the real grid runs in the bench-gate / bench-nightly CI jobs.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "benchmarks_bench_scaling", REPO / "benchmarks" / "bench_scaling.py"
)
bench_scaling = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_scaling)
sys.modules["benchmarks_bench_scaling"] = bench_scaling

_cb_spec = importlib.util.spec_from_file_location(
    "scripts_check_bench_for_scaling", REPO / "scripts" / "check_bench.py"
)
check_bench_mod = importlib.util.module_from_spec(_cb_spec)
_cb_spec.loader.exec_module(check_bench_mod)


@pytest.fixture(scope="module")
def tiny_sweep():
    return bench_scaling.run_sweep(sizes=[16, 32], partitions=[2, 4], moves=4)


class TestSweep:
    def test_document_shape(self, tiny_sweep):
        assert tiny_sweep["format"] == "bench-scaling-v1"
        assert tiny_sweep["sizes"] == [16, 32]
        assert tiny_sweep["partitions"] == [2, 4]
        assert len(tiny_sweep["cells"]) == 4

    def test_cells_carry_both_kernels_and_counters(self, tiny_sweep):
        for cell in tiny_sweep["cells"]:
            assert set(cell["kernels"]) == {"batched", "scalar"}
            for side in cell["kernels"].values():
                assert side["seconds"] >= 0.0
                assert side["counters"]["delta.moves"] == cell["moves"]
                assert side["counters"]["delta.full_rebuilds"] >= 1.0
            assert cell["speedup"] > 0.0

    def test_counters_are_kernel_independent(self, tiny_sweep):
        for cell in tiny_sweep["cells"]:
            assert (
                cell["kernels"]["batched"]["counters"]
                == cell["kernels"]["scalar"]["counters"]
            )

    def test_sweep_is_deterministic_apart_from_timings(self, tiny_sweep):
        again = bench_scaling.run_sweep(sizes=[16, 32], partitions=[2, 4], moves=4)
        for a, b in zip(tiny_sweep["cells"], again["cells"]):
            assert a["kernels"]["batched"]["counters"] == (
                b["kernels"]["batched"]["counters"]
            )

    def test_output_passes_its_own_gate(self, tiny_sweep):
        # At toy sizes the batched kernel's call overhead can lose to the
        # scalar loop, so waive the speedup floor: this test is about
        # schema compatibility (counters + timings), not performance.
        baseline = json.loads(json.dumps(tiny_sweep))
        for cell in baseline["cells"]:
            cell["min_speedup"] = 0.0
        assert check_bench_mod.check_scaling(tiny_sweep, baseline) == []

    def test_kernel_divergence_aborts(self, tiny_sweep):
        results = {
            "batched": (0.1, [1, 2], [0.0, 0.0], None),
            "scalar": (0.2, [1, 3], [0.0, 0.0], None),
        }
        with pytest.raises(AssertionError, match="different candidates"):
            bench_scaling.assert_equivalent(results, "n=16 k=2")

    def test_drifted_cache_fails_the_final_audit(self):
        problem, reference = bench_scaling.build_cell_problem(
            16, 2, seed=bench_scaling.SEED
        )
        results = {
            name: bench_scaling.run_kernel(problem, reference, [], scan)
            for name, scan in bench_scaling.SCANS.items()
        }
        results["scalar"][3].delta[0, 1] += 1.0
        with pytest.raises(AssertionError, match="drifted"):
            bench_scaling.assert_equivalent(results, "n=16 k=2")


class TestCli:
    def test_writes_document(self, tmp_path):
        out = tmp_path / "BENCH_scaling.json"
        code = bench_scaling.main(
            ["--sizes", "16", "--partitions", "2", "--moves", "3",
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["format"] == "bench-scaling-v1"
        assert payload["cells"][0]["moves"] == 3

    def test_rejects_degenerate_arguments(self):
        with pytest.raises(SystemExit):
            bench_scaling.main(["--moves", "0"])
        with pytest.raises(SystemExit):
            bench_scaling.main(["--sizes", "1"])
