"""Tests for repro.tools.files (tool file formats)."""

import pytest

from repro.core.assignment import Assignment
from repro.netlist.generate import ClusteredCircuitSpec, generate_clustered_circuit
from repro.netlist.io import save_circuit
from repro.netlist.parsers import save_edge_list
from repro.timing.constraints import TimingConstraints
from repro.tools.files import (
    assignment_from_dict,
    assignment_to_dict,
    load_any_circuit,
)


@pytest.fixture
def circuit():
    spec = ClusteredCircuitSpec("t", num_components=12, num_wires=30)
    return generate_clustered_circuit(spec, seed=3)


class TestLoadAnyCircuit:
    def test_json(self, circuit, tmp_path):
        path = tmp_path / "c.json"
        save_circuit(circuit, path)
        restored = load_any_circuit(path)
        assert restored.num_components == 12

    def test_wires(self, circuit, tmp_path):
        path = tmp_path / "c.wires"
        save_edge_list(circuit, path)
        restored = load_any_circuit(path)
        assert restored.num_wires == circuit.num_wires

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(ValueError, match="unsupported"):
            load_any_circuit(tmp_path / "c.blif")


class TestTimingRoundTrip:
    def test_roundtrip(self):
        tc = TimingConstraints(5)
        tc.add(0, 1, 2.0, symmetric=True)
        tc.add(3, 4, 1.5)
        restored = TimingConstraints.from_dict(tc.to_dict())
        assert list(restored.items()) == list(tc.items())
        assert restored.num_components == 5

    def test_missing_count_rejected(self):
        with pytest.raises(ValueError, match="num_components"):
            TimingConstraints.from_dict({"constraints": []})

    def test_malformed_entry_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            TimingConstraints.from_dict({"num_components": 3, "constraints": [[0, 1]]})

    @pytest.mark.parametrize(
        "document",
        [
            {"num_components": 3, "constraints": [5]},
            {"num_components": 3, "constraints": [[0, 1, None]]},
            {"num_components": 3, "constraints": [[0, "a", 1.0]]},
            {"num_components": 3, "constraints": [[0, 7, 1.0]]},
            {"num_components": 3, "constraints": [[0, 1, -1.0]]},
            {"num_components": "three", "constraints": []},
            {"num_components": 3, "constraints": {"0": [0, 1, 1.0]}},
            [[0, 1, 1.0]],
        ],
    )
    def test_malformed_document_is_a_value_error(self, document):
        with pytest.raises(ValueError):
            TimingConstraints.from_dict(document)


class TestAssignmentRoundTrip:
    def test_roundtrip(self, circuit):
        a = Assignment([j % 4 for j in range(12)], 4)
        restored = assignment_from_dict(assignment_to_dict(a, circuit), circuit)
        assert restored == a

    def test_names_used_as_keys(self, circuit):
        a = Assignment([0] * 12, 4)
        doc = assignment_to_dict(a, circuit)
        assert "u0" in doc["assignment"]

    def test_missing_component_rejected(self, circuit):
        doc = {"num_partitions": 4, "assignment": {"u0": 1}}
        with pytest.raises(ValueError, match="misses"):
            assignment_from_dict(doc, circuit)

    def test_missing_fields_rejected(self, circuit):
        with pytest.raises(ValueError):
            assignment_from_dict({"num_partitions": 4}, circuit)
        with pytest.raises(ValueError):
            assignment_from_dict({"assignment": {}}, circuit)
