"""File-format helpers for the command-line tools."""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict

from repro.core.assignment import Assignment
from repro.netlist.circuit import Circuit
from repro.netlist.io import load_circuit
from repro.netlist.parsers import load_edge_list


def load_any_circuit(path: str | Path) -> Circuit:
    """Load a circuit by file extension: ``.json`` or ``.wires``."""
    path = Path(path)
    if path.suffix == ".json":
        return load_circuit(path)
    if path.suffix in (".wires", ".txt"):
        return load_edge_list(path)
    raise ValueError(
        f"unsupported circuit format {path.suffix!r}; use .json or .wires"
    )


def assignment_to_dict(assignment: Assignment, circuit: Circuit) -> Dict[str, Any]:
    """Serialise an assignment with component names for readability."""
    return {
        "num_partitions": assignment.num_partitions,
        "assignment": {
            circuit.component(j).name: int(assignment[j])
            for j in range(assignment.num_components)
        },
    }


def assignment_from_dict(data: Dict[str, Any], circuit: Circuit) -> Assignment:
    """Inverse of :func:`assignment_to_dict` (resolves names to indices)."""
    mapping = data.get("assignment")
    if mapping is None:
        raise ValueError("assignment document is missing 'assignment'")
    m = int(data.get("num_partitions", 0))
    if m <= 0:
        raise ValueError("assignment document needs a positive 'num_partitions'")
    part = [0] * circuit.num_components
    seen = set()
    for name, partition in mapping.items():
        j = circuit.index_of(name)
        part[j] = int(partition)
        seen.add(j)
    if len(seen) != circuit.num_components:
        missing = circuit.num_components - len(seen)
        raise ValueError(f"assignment document misses {missing} component(s)")
    return Assignment(part, m)
