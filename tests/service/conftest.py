"""Shared fixtures for the service-layer tests: tiny request documents."""

from __future__ import annotations

import pytest

from repro.netlist.generate import ClusteredCircuitSpec, generate_clustered_circuit
from repro.netlist.io import circuit_to_dict


@pytest.fixture(scope="session")
def circuit_doc() -> dict:
    """A small deterministic circuit as its JSON document."""
    spec = ClusteredCircuitSpec("svc", num_components=16, num_wires=32)
    return circuit_to_dict(generate_clustered_circuit(spec, seed=7))


@pytest.fixture
def request_doc(circuit_doc) -> dict:
    """A fast solve request (few iterations, 2x2 grid)."""
    return {
        "circuit": circuit_doc,
        "grid": [2, 2],
        "solver": "qbp",
        "config": {"iterations": 5},
        "seed": 11,
    }
