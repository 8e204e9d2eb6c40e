"""Solvers: the generalized Burkard QBP heuristic and its subsolvers.

* :mod:`repro.solvers.gap` - the Martello-Toth heuristic (MTHG) for
  Generalized Assignment Problems, the inner subproblem of the
  generalized Burkard iteration (paper Section 4.3),
* :mod:`repro.solvers.lap` - an auction solver for Linear Assignment
  Problems, the inner subproblem of the original (QAP) Burkard
  heuristic (Section 2.2.3),
* :mod:`repro.solvers.qbp` - the paper's main contribution: the
  generalized/enhanced Burkard heuristic with sparse on-demand ``Q``
  evaluation (Sections 4.2-4.3),
* :mod:`repro.solvers.greedy` - initial capacity-feasible constructors
  plus the paper's "QBP with B = 0" feasibility bootstrap,
* :mod:`repro.solvers.exact` - exhaustive / branch-and-bound reference
  solvers for small instances (used to validate the embedding theorems).
"""

from repro.solvers.qbp import (
    BurkardResult,
    bootstrap_initial_solution,
    resolve_penalty,
    solve_qbp,
    solve_qbp_multistart,
)
from repro.solvers.exact import solve_exact
from repro.solvers.gap import GapInfeasibleError, GapResult, solve_gap
from repro.solvers.greedy import greedy_feasible_assignment
from repro.solvers.lap import solve_lap

__all__ = [
    "BurkardResult",
    "GapInfeasibleError",
    "GapResult",
    "bootstrap_initial_solution",
    "greedy_feasible_assignment",
    "resolve_penalty",
    "solve_exact",
    "solve_gap",
    "solve_lap",
    "solve_qbp",
    "solve_qbp_multistart",
]
