"""Tests for the command-line partitioner (python -m repro.tools.partition)."""

import json

import pytest

from repro.netlist.generate import ClusteredCircuitSpec, generate_clustered_circuit
from repro.netlist.io import save_circuit
from repro.timing.constraints import TimingConstraints
from repro.tools.partition import main, parse_grid


@pytest.fixture
def circuit_file(tmp_path):
    spec = ClusteredCircuitSpec("cli", num_components=24, num_wires=70)
    circuit = generate_clustered_circuit(spec, seed=9)
    path = tmp_path / "circuit.json"
    save_circuit(circuit, path)
    return path, circuit


class TestParseGrid:
    def test_ok(self):
        assert parse_grid("4x4") == (4, 4)
        assert parse_grid("2X3") == (2, 3)

    def test_bad(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_grid("4by4")


class TestMain:
    def test_qbp_run_writes_assignment(self, circuit_file, tmp_path, capsys):
        path, circuit = circuit_file
        out = tmp_path / "assignment.json"
        code = main(
            [
                str(path),
                "--grid",
                "2x2",
                "--solver",
                "qbp",
                "--qbp-iterations",
                "10",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["solver"] == "qbp"
        assert len(payload["assignment"]) == 24
        assert set(payload["assignment"].values()) <= {0, 1, 2, 3}
        assert "cost" in payload
        assert "feasible" in capsys.readouterr().out

    def test_multistart_parallel_matches_serial(self, circuit_file, tmp_path, capsys):
        path, _ = circuit_file

        def run(workers, out_name):
            out = tmp_path / out_name
            args = [
                str(path), "--grid", "2x2", "--qbp-iterations", "5",
                "--qbp-restarts", "3", "--seed", "1", "--output", str(out),
            ]
            if workers is not None:
                args += ["--workers", str(workers)]
            assert main(args) == 0
            return json.loads(out.read_text())

        serial = run(1, "serial.json")
        parallel = run(2, "parallel.json")
        assert serial["assignment"] == parallel["assignment"]
        assert serial["cost"] == parallel["cost"]

    def test_checkpoint_with_restarts_rejected(self, circuit_file, tmp_path, capsys):
        path, _ = circuit_file
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    str(path), "--qbp-restarts", "2",
                    "--checkpoint", str(tmp_path / "c.json"),
                ]
            )
        assert exc.value.code == 2
        assert "--qbp-restarts 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--iterations", "--restarts"])
    def test_top_level_qbp_flags_rejected(self, circuit_file, flag, capsys):
        path, _ = circuit_file
        with pytest.raises(SystemExit) as exc:
            main([str(path), flag, "5"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_bad_workers_rejected(self, circuit_file, capsys):
        path, _ = circuit_file
        with pytest.raises(SystemExit):
            main([str(path), "--workers", "0"])

    @pytest.mark.parametrize("solver", ["gfm", "gkl"])
    def test_baseline_solvers(self, circuit_file, solver, capsys):
        path, _ = circuit_file
        code = main([str(path), "--grid", "2x2", "--solver", solver])
        assert code == 0
        assert solver in capsys.readouterr().out

    def test_report_flag(self, circuit_file, capsys):
        path, _ = circuit_file
        code = main([str(path), "--grid", "2x2", "--solver", "gfm", "--report"])
        assert code == 0
        out = capsys.readouterr().out
        assert "partition utilisation" in out

    def test_with_timing_file(self, circuit_file, tmp_path, capsys):
        path, circuit = circuit_file
        tc = TimingConstraints(circuit.num_components)
        tc.add(0, 1, 2.0, symmetric=True)
        timing_path = tmp_path / "timing.json"
        timing_path.write_text(json.dumps(tc.to_dict()))
        code = main(
            [
                str(path),
                "--grid",
                "2x2",
                "--timing",
                str(timing_path),
                "--solver",
                "qbp",
                "--qbp-iterations",
                "5",
            ]
        )
        assert code == 0
        assert "feasible" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "document",
        [
            "not json",
            '{"num_components": 24, "constraints": [5]}',
            '{"num_components": 24, "constraints": [[0, 1, null]]}',
        ],
    )
    def test_bad_timing_file_is_a_usage_error(
        self, circuit_file, tmp_path, document, capsys
    ):
        path, _ = circuit_file
        timing_path = tmp_path / "bad.json"
        timing_path.write_text(document)
        with pytest.raises(SystemExit) as exc:
            main([str(path), "--grid", "2x2", "--timing", str(timing_path)])
        assert exc.value.code == 2
        assert "bad --timing file" in capsys.readouterr().err

    def test_explicit_capacity(self, circuit_file):
        path, circuit = circuit_file
        # Generous explicit capacity: must succeed.
        code = main(
            [str(path), "--grid", "1x2", "--capacity", str(circuit.total_size()),
             "--solver", "gfm"]
        )
        assert code == 0
