"""The unified solver result type (:class:`SolveOutcome`).

Every solver entry point in this repository returns a subclass of
:class:`SolveOutcome`: :class:`repro.solvers.qbp.BurkardResult` and
:class:`repro.baselines.result.InterchangeResult` both converge on it,
so downstream consumers (``eval/harness.py``, ``tools/partition.py``,
result folding in ``repro.parallel``) can treat any solver's outcome
uniformly instead of special-casing per result class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.assignment import Assignment
from repro.runtime.budget import STOP_COMPLETED, STOP_STALLED


@dataclass
class SolveOutcome:
    """Common shape of every solver's result.

    ``assignment`` is the solver's headline solution (whatever its own
    selection criterion favours); :attr:`solution` is the assignment a
    report should present — subclasses override it when the two differ
    (QBP reports its best *fully feasible* iterate, which may not be the
    penalized-cost incumbent).
    """

    assignment: Assignment
    cost: float
    feasible: bool
    elapsed_seconds: float
    stop_reason: str = field(default=STOP_COMPLETED, kw_only=True)
    """Why the run ended: ``completed | deadline | cancelled | stalled``."""

    @property
    def solution(self) -> Optional[Assignment]:
        """The assignment to report (``None`` if no reportable one exists)."""
        return self.assignment

    @property
    def completed(self) -> bool:
        """``True`` unless a budget cut the run short."""
        return self.stop_reason in (STOP_COMPLETED, STOP_STALLED)
