"""The generalized Burkard heuristic for QBP partitioning (paper Section 4).

This is the paper's main algorithmic contribution.  Burkard's iterative
linearisation for quadratic boolean programs (STEP 1-8 of Section 4.2)
is generalized so that

* the solution space ``S`` is *capacity-constrained assignments* (C1 +
  C3) rather than permutations, making the STEP 4 / STEP 6 subproblems
  Generalized Assignment Problems solved with Martello-Toth
  (:mod:`repro.solvers.gap`) - Section 4.3,
* timing constraints are embedded as penalties in the cost matrix
  ``Q_hat`` (Section 3.2) - the solver never materialises ``Q_hat``;
  following Section 4.3 it evaluates the STEP 3 vector ``eta`` directly
  from the sparse interconnection matrix ``A``, the small ``M x M``
  ``B``/``D`` matrices, and the explicit timing-constraint list, so each
  iteration costs O(nnz(A) * M + |constraints| * M) instead of
  O(M^2 N^2).

The iteration, faithful to the paper's pseudocode::

    STEP 1  k <- 1, h <- 0
    STEP 2  compute bounds omega (eq. 2); pick u(1) in S; best <- u(1)
    STEP 3  eta_s = sum_r qhat[r, s] * u_r;   xi = sum_r omega_r * u_r
    STEP 4  z = min over S of sum_r eta_r u_r          (GAP solve)
    STEP 5  h += eta / max(1, |z - xi|)
    STEP 6  u(k+1) = argmin over S of sum_r h_r u_r    (GAP solve)
    STEP 7  keep u(k+1) if its true quadratic cost beats the incumbent
    STEP 8  stop after N_iterations

"The user can have precise control over the total runtime": quality is
monotone in ``iterations`` (the incumbent never worsens), and the best
solution seen is returned.

The implementation is decomposed by concern, all built on the shared
engine layer (:mod:`repro.engine`):

* :mod:`~repro.solvers.qbp.formulation` — penalty resolution, omega
  bounds, the :class:`IterationState` view over the shared engine
  kernel,
* :mod:`~repro.solvers.qbp.iteration` — :func:`solve_qbp` (STEP 1-8)
  and the supervised inner-GAP ladder,
* :mod:`~repro.solvers.qbp.multistart` — restart fan-out and
  best-restart selection,
* :mod:`~repro.solvers.qbp.bootstrap` — the paper's zero-``B`` initial
  feasible-solution recipe.

This package is the solver's one import surface: it re-exports the
public names of its submodules.  The keyword reference lives in
:func:`~repro.solvers.qbp.iteration.solve_qbp`'s docstring.
"""

from repro.solvers.qbp.bootstrap import BootstrapStallError, bootstrap_initial_solution
from repro.solvers.qbp.formulation import (
    DEFAULT_GAP_CRITERIA,
    ETA_MODES,
    IterationState,
    PAPER_PENALTY,
    is_fully_feasible,
    resolve_penalty,
    validated_initial,
)
from repro.solvers.qbp.iteration import BurkardResult, solve_qbp
from repro.solvers.qbp.multistart import MultistartError, solve_qbp_multistart

__all__ = [
    "BootstrapStallError",
    "BurkardResult",
    "DEFAULT_GAP_CRITERIA",
    "ETA_MODES",
    "IterationState",
    "MultistartError",
    "PAPER_PENALTY",
    "bootstrap_initial_solution",
    "is_fully_feasible",
    "resolve_penalty",
    "solve_qbp",
    "solve_qbp_multistart",
    "validated_initial",
]
