"""Command-line tools.

* ``python -m repro.tools.partition`` - partition a circuit file onto a
  grid topology with any of the three solvers and write the assignment
  (plus a designer-facing report) as JSON.

File-format helpers shared by the tools live in
:mod:`repro.tools.files`.
"""

from repro.tools.files import (
    assignment_from_dict,
    assignment_to_dict,
    load_any_circuit,
)

__all__ = [
    "assignment_from_dict",
    "assignment_to_dict",
    "load_any_circuit",
]
