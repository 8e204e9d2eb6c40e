"""The six built-in solver registrations.

Each entry wraps one existing entry point behind the uniform
``run(problem, initial, config, ctx) -> SolveOutcome`` adapter
signature.  The adapters add **no** behaviour — argument defaults and
call shapes reproduce the historical call sites exactly, which is what
the golden-equivalence suite (``tests/integration``) pins down.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.baselines.annealing import annealing_partition
from repro.baselines.gfm import gfm_partition
from repro.baselines.gkl import gkl_partition
from repro.baselines.spectral import spectral_partition
from repro.engine.outcome import SolveOutcome
from repro.engine.registry import (
    INITIAL_OPTIONAL,
    INITIAL_REQUIRED,
    INITIAL_UNUSED,
    RunContext,
    SolverRegistry,
    SolverSpec,
)
from repro.pipeline.configs import (
    AnnealingConfig,
    ExactConfig,
    GfmConfig,
    GklConfig,
    QbpConfig,
    SpectralConfig,
)
from repro.runtime.budget import STOP_COMPLETED, STOP_STALLED
from repro.solvers.qbp import solve_qbp, solve_qbp_multistart
from repro.solvers.exact import solve_exact


@dataclass
class ExactOutcome(SolveOutcome):
    """The exact solver's result lifted into the uniform outcome shape.

    ``stop_reason`` is ``completed`` for a proven optimum and
    ``stalled`` when the node limit truncated the search (the incumbent
    is still reported).
    """

    nodes_explored: int = 0
    proven_optimal: bool = False


def _run_qbp(problem, initial, config: QbpConfig, ctx: RunContext):
    if config.restarts > 1:
        return solve_qbp_multistart(
            problem,
            restarts=config.restarts,
            iterations=config.iterations,
            initial=initial,
            seed=ctx.seed,
            budget=ctx.budget,
            workers=ctx.workers,
            telemetry=ctx.telemetry,
            penalty=config.penalty,
            eta_mode=config.eta_mode,
        )
    return solve_qbp(
        problem,
        iterations=config.iterations,
        penalty=config.penalty,
        eta_mode=config.eta_mode,
        initial=initial,
        seed=ctx.seed,
        budget=ctx.budget,
        checkpointer=ctx.checkpointer,
        resume=ctx.resume,
        telemetry=ctx.telemetry,
    )


def _run_gfm(problem, initial, config: GfmConfig, ctx: RunContext):
    return gfm_partition(
        problem,
        initial,
        max_passes=config.max_passes,
        budget=ctx.budget,
        telemetry=ctx.telemetry,
    )


def _run_gkl(problem, initial, config: GklConfig, ctx: RunContext):
    return gkl_partition(
        problem,
        initial,
        max_outer_loops=config.max_outer_loops,
        budget=ctx.budget,
        telemetry=ctx.telemetry,
    )


def _run_annealing(problem, initial, config: AnnealingConfig, ctx: RunContext):
    return annealing_partition(
        problem,
        initial,
        moves_per_temperature=config.moves_per_temperature,
        initial_acceptance=config.initial_acceptance,
        cooling=config.cooling,
        temperature_steps=config.temperature_steps,
        swap_probability=config.swap_probability,
        seed=ctx.seed,
        budget=ctx.budget,
        telemetry=ctx.telemetry,
    )


def _run_spectral(problem, initial, config: SpectralConfig, ctx: RunContext):
    return spectral_partition(
        problem,
        dimensions=config.dimensions,
        repair_timing=config.repair_timing,
        seed=ctx.seed,
        telemetry=ctx.telemetry,
    )


def _run_exact(problem, initial, config: ExactConfig, ctx: RunContext):
    started = time.perf_counter()
    result = solve_exact(
        problem,
        respect_timing=config.respect_timing,
        node_limit=config.node_limit,
    )
    if result.assignment is None:
        raise RuntimeError(
            "exact solver found no feasible assignment "
            f"(nodes explored: {result.nodes_explored}, "
            f"proven: {result.proven_optimal})"
        )
    return ExactOutcome(
        assignment=result.assignment,
        cost=float(result.cost),
        feasible=True,
        elapsed_seconds=time.perf_counter() - started,
        stop_reason=STOP_COMPLETED if result.proven_optimal else STOP_STALLED,
        nodes_explored=result.nodes_explored,
        proven_optimal=result.proven_optimal,
    )


def register_builtin_solvers(registry: SolverRegistry) -> SolverRegistry:
    """Register the six built-in solvers (paper trio first, in run order)."""
    registry.register(
        SolverSpec(
            name="qbp",
            summary="the paper's QBP heuristic (Burkard iteration)",
            config_cls=QbpConfig,
            run=_run_qbp,
            supports_restarts=True,
            supports_checkpoint=True,
            initial=INITIAL_OPTIONAL,
            recompute_report_cost=True,
            paper=True,
        )
    )
    registry.register(
        SolverSpec(
            name="gfm",
            summary="generalized Fiduccia-Mattheyses baseline",
            config_cls=GfmConfig,
            run=_run_gfm,
            initial=INITIAL_REQUIRED,
            paper=True,
        )
    )
    registry.register(
        SolverSpec(
            name="gkl",
            summary="generalized Kernighan-Lin baseline",
            config_cls=GklConfig,
            run=_run_gkl,
            initial=INITIAL_REQUIRED,
            paper=True,
        )
    )
    registry.register(
        SolverSpec(
            name="annealing",
            summary="simulated annealing over the move/swap neighbourhood",
            config_cls=AnnealingConfig,
            run=_run_annealing,
            initial=INITIAL_REQUIRED,
        )
    )
    registry.register(
        SolverSpec(
            name="spectral",
            summary="Barnes-style spectral embedding + capacitated GAP",
            config_cls=SpectralConfig,
            run=_run_spectral,
            initial=INITIAL_UNUSED,
        )
    )
    registry.register(
        SolverSpec(
            name="exact",
            summary="branch-and-bound to the proven optimum (small N)",
            config_cls=ExactConfig,
            run=_run_exact,
            initial=INITIAL_UNUSED,
        )
    )
    return registry


_DEFAULT_REGISTRY = None


def default_registry() -> SolverRegistry:
    """The process-wide registry holding the built-in solvers."""
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        _DEFAULT_REGISTRY = register_builtin_solvers(SolverRegistry())
    return _DEFAULT_REGISTRY


__all__ = ["ExactOutcome", "default_registry", "register_builtin_solvers"]
