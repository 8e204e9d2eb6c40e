"""Evaluation harness: regenerate the paper's Tables I-III.

* :mod:`repro.eval.paper_data` - the published numbers, for side-by-side
  comparison,
* :mod:`repro.eval.workloads` - synthetic twins of the seven industrial
  circuits (exact Table I statistics, clustered structure, 16-partition
  4x4 Manhattan topology, feasible-by-construction timing constraints),
* :mod:`repro.eval.harness` - runs QBP / GFM / GKL from a shared
  bootstrap initial solution and records costs, improvements and CPU,
* :mod:`repro.eval.tables` - renders the results in the layout of the
  paper's tables,
* ``python -m repro.eval.run`` - the command-line entry point.
"""

from repro.eval.harness import (
    ExperimentRow,
    run_circuit_experiment,
    run_table,
)
from repro.eval.paper_data import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    CIRCUIT_NAMES,
)
from repro.eval.tables import render_table1, render_table23
from repro.eval.workloads import Workload, build_workload, workload_names

__all__ = [
    "CIRCUIT_NAMES",
    "ExperimentRow",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "Workload",
    "build_workload",
    "render_table1",
    "render_table23",
    "run_circuit_experiment",
    "run_table",
    "workload_names",
]
