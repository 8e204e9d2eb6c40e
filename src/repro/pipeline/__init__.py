"""The unified solver surface: registry + shared solve pipeline.

This package is the ONE place where solver implementations are wired
to names.  Everything above it (``repro.tools``, ``repro.service``,
``repro.eval``) dispatches through the registry — the layering gate
(``scripts/check_imports.py`` / ``tests/test_layering.py``) forbids
those packages from importing ``repro.solvers`` / ``repro.baselines``
directly, so adding a solver is a one-file drop-in here and it is
instantly runnable from the CLI, the daemon and the benchmark gate.

Layering: ``pipeline`` sits above ``solvers``/``baselines`` (it imports
them to register the built-ins) and below the consumer packages; the
registry *infrastructure* (SolverSpec/SolverConfig/SolverRegistry)
lives in :mod:`repro.engine.registry`, which imports no solver code.

Quick use::

    from repro.pipeline import SolvePipeline, solver_names

    pipeline = SolvePipeline()
    run = pipeline.run("annealing", problem, config={"temperature_steps": 20},
                       initial=start, seed=0)
    print(run.outcome.cost, run.outcome.stop_reason)
"""

from __future__ import annotations

from typing import Tuple

from repro.engine.registry import (
    RunContext,
    SolverConfig,
    SolverRegistry,
    SolverSpec,
    UnknownSolverError,
)
from repro.pipeline.builtin import (
    ExactOutcome,
    default_registry,
    register_builtin_solvers,
)
from repro.pipeline.configs import (
    AnnealingConfig,
    ExactConfig,
    GfmConfig,
    GklConfig,
    QbpConfig,
    SpectralConfig,
)
from repro.pipeline.core import PipelineRun, SolvePipeline
from repro.pipeline.initial import (
    InitialSolutionError,
    paper_initial_solution,
    supervised_initial_solution,
)

# Re-exported helpers for registry-level consumers (the layering rule
# keeps eval/tools/service from importing solver packages directly, but
# the ablation runner still needs these solver-stack utilities).
from repro.solvers.qbp import resolve_penalty
from repro.solvers.greedy import greedy_feasible_assignment

def get_solver(name: str) -> SolverSpec:
    """Look up a registered solver (raises :class:`UnknownSolverError`)."""
    return default_registry().get(name)


def solver_names() -> Tuple[str, ...]:
    """Registered solver names, in registration (= listing) order."""
    return default_registry().names()


def paper_solver_names() -> Tuple[str, ...]:
    """The paper's Table II/III method set (qbp, gfm, gkl), in run order."""
    return tuple(
        spec.name for spec in default_registry().specs() if spec.paper
    )


__all__ = [
    "AnnealingConfig",
    "ExactConfig",
    "ExactOutcome",
    "GfmConfig",
    "GklConfig",
    "InitialSolutionError",
    "PipelineRun",
    "QbpConfig",
    "RunContext",
    "SolvePipeline",
    "SolverConfig",
    "SolverRegistry",
    "SolverSpec",
    "SpectralConfig",
    "UnknownSolverError",
    "default_registry",
    "get_solver",
    "greedy_feasible_assignment",
    "paper_initial_solution",
    "paper_solver_names",
    "register_builtin_solvers",
    "resolve_penalty",
    "solver_names",
    "supervised_initial_solution",
]
