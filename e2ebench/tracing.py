"""Call capture and span tracing, wrapped around the program from outside.

Nothing in ``src/`` is modified.  Each target is replaced, for the
duration of a ``with`` block, on the object its callers look it up on:
a module attribute (``repro.solvers.qbp.iteration.solve_gap``) or a
class attribute (``DeltaCache.apply_move``).  The originals are restored
on exit, also when the block raises.

Two things are installed this way:

* :class:`Capture` is always on.  It records every
  ``SolvePipeline.run`` (solver, problem, start, outcome) so the
  correctness checks can re-verify the assignments that ``run_table``
  does not return, and whether each paper bootstrap succeeded or fell
  back.  It takes no timestamps.
* :class:`Tracer` is on only in a traced run.  It records one span per
  call at every layer boundary listed in :data:`TRACE_POINTS`: name,
  start, end, parent span and run id, kept in memory and written out
  when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# (module, owner attribute or None for the module itself, attribute, span name)
TRACE_POINTS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    # pipeline.initial: the two start-solution ladders, as the workloads call them.
    ("repro.eval.harness", None, "shared_initial_solution", "initial"),
    ("repro.pipeline", None, "supervised_initial_solution", "initial"),
    # solvers.qbp.bootstrap, and the zero-B QBP attempts inside it.
    ("repro.pipeline.initial", None, "bootstrap_initial_solution", "bootstrap"),
    ("repro.solvers.qbp.bootstrap", None, "solve_qbp", "bootstrap.qbp"),
    # solvers.qbp / baselines as the pipeline's adapters call them.
    ("repro.pipeline.builtin", None, "solve_qbp", "qbp"),
    ("repro.pipeline.builtin", None, "gfm_partition", "gfm"),
    ("repro.pipeline.builtin", None, "gkl_partition", "gkl"),
    ("repro.solvers.qbp.formulation", "IterationState", "eta", "eta"),
    # solvers.gap: the rung is told apart by the keyword arguments.
    ("repro.solvers.qbp.iteration", None, "solve_gap", "gap"),
    # solvers.repair: iterate/bootstrap repair imports the module
    # attribute lazily; the supervised ladder holds its own reference.
    ("repro.solvers.repair", None, "repair_feasibility", "repair"),
    ("repro.pipeline.initial", None, "repair_feasibility", "repair"),
    ("repro.solvers.qbp.iteration", None, "feasible_merge", "merge"),
    # engine.delta
    ("repro.engine.delta", "DeltaCache", "swap_delta_matrix", "gkl.swap_scan"),
    ("repro.engine.delta", "DeltaCache", "swap_capacity_mask", "gkl.swap_scan"),
    ("repro.engine.delta", "DeltaCache", "best_move", "delta.scan"),
    ("repro.engine.delta", "DeltaCache", "apply_move", "delta.apply"),
    # core: the program's own feasibility re-checks.
    ("repro.eval.harness", None, "check_feasibility", "verify"),
    ("repro.baselines.gfm", None, "check_feasibility", "verify"),
    ("repro.baselines.gkl", None, "check_feasibility", "verify"),
)

LAYERS: Tuple[str, ...] = (
    "initial",
    "bootstrap",
    "bootstrap.qbp",
    "qbp",
    "eta",
    "gap",
    "repair",
    "merge",
    "gfm",
    "gkl",
    "gkl.swap_scan",
    "delta.scan",
    "delta.apply",
    "verify",
)
"""Layers whose self time is reported; the ``gap.*`` rungs fold into ``gap``."""

GAP_RUNGS = ("trust", "timing", "plain")
DELTA_COUNTERS = (
    "eta_evals",
    "moves",
    "swaps",
    "row_refreshes",
    "timing_row_refreshes",
    "full_rebuilds",
)


def _owner(module: str, owner: Optional[str]) -> Any:
    mod = importlib.import_module(module)
    return mod if owner is None else getattr(mod, owner)


@contextlib.contextmanager
def replaced(patches: List[Tuple[Any, str, Callable]]) -> Iterator[None]:
    """Set ``owner.attr = new`` for each patch; restore all on exit."""
    saved = []
    try:
        for owner, attr, new in patches:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


# ----------------------------------------------------------------------
# Capture: what the program returned, for the correctness checks
# ----------------------------------------------------------------------
@dataclass
class SolveCall:
    """One ``SolvePipeline.run`` as the program made it."""

    solver: str
    problem: Any
    outcome: Any = None
    """``None`` when the call raised."""


@dataclass
class Capture:
    """Records solver calls and bootstrap outcomes; always installed."""

    solves: List[SolveCall] = field(default_factory=list)
    bootstraps: List[bool] = field(default_factory=list)
    """One entry per paper bootstrap: ``True`` when it returned a start."""

    def clear(self) -> None:
        self.solves.clear()
        self.bootstraps.clear()

    @contextlib.contextmanager
    def installed(self) -> Iterator["Capture"]:
        from repro.pipeline.core import SolvePipeline
        import repro.pipeline.initial as initial_mod

        run = SolvePipeline.run
        bootstrap = initial_mod.bootstrap_initial_solution
        solves, bootstraps = self.solves, self.bootstraps

        @functools.wraps(run)
        def captured_run(pipeline, solver, problem, **kwargs):
            call = SolveCall(pipeline.spec(solver).name, problem)
            solves.append(call)
            result = run(pipeline, solver, problem, **kwargs)
            call.outcome = result.outcome
            return result

        @functools.wraps(bootstrap)
        def captured_bootstrap(*args, **kwargs):
            try:
                result = bootstrap(*args, **kwargs)
            except Exception:
                bootstraps.append(False)
                raise
            bootstraps.append(True)
            return result

        with replaced(
            [
                (SolvePipeline, "run", captured_run),
                (initial_mod, "bootstrap_initial_solution", captured_bootstrap),
            ]
        ):
            yield self


# ----------------------------------------------------------------------
# Tracer: spans at the layer boundaries
# ----------------------------------------------------------------------
class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, span_id: int, parent: int, name: str, start: float) -> None:
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.attrs: Optional[Dict[str, Any]] = None

    def set(self, key: str, value: Any) -> None:
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = value

    def to_json(self, run_id: str) -> dict:
        return {
            "run": run_id,
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs or {},
        }


def _gap_rung(kwargs: dict) -> str:
    if kwargs.get("allowed_mask") is not None:
        return "trust"
    if kwargs.get("timing") is not None:
        return "timing"
    return "plain"


class Tracer:
    """In-memory span recorder for one traced run.

    Span ``0`` is the root (one measured pass); its self time is the
    wall time no layer covers.  ``delta_stats`` collects the counters of
    every :class:`~repro.engine.delta.DeltaCache` built during the pass,
    which the program publishes only to an enabled telemetry bundle.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.stack: List[int] = [0]
        self.delta_stats: List[Any] = []
        self.root = Span(0, -1, "pass", 0.0)

    def open(self, name: str) -> Span:
        span = Span(len(self.spans) + 1, self.stack[-1], name, time.perf_counter())
        self.spans.append(span)
        self.stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if name == "gap":
                span_name = "gap." + _gap_rung(kwargs)
            span = tracer.open(span_name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.set("error", type(exc).__name__)
                raise
            finally:
                tracer.close(span)
            if name == "repair":
                span.set("ok", result is not None)
            elif name in ("qbp", "bootstrap.qbp"):
                span.set("iterations", int(result.iterations))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        from repro.engine.delta import DeltaCache

        patches = []
        for module, owner_name, attr, name in TRACE_POINTS:
            owner = _owner(module, owner_name)
            patches.append((owner, attr, self._wrap(getattr(owner, attr), name)))

        init = DeltaCache.__init__
        delta_stats = self.delta_stats

        @functools.wraps(init)
        def counted_init(cache, *args, **kwargs):
            init(cache, *args, **kwargs)
            delta_stats.append(cache.stats)

        patches.append((DeltaCache, "__init__", counted_init))
        with replaced(patches):
            yield self

    @contextlib.contextmanager
    def measure(self) -> Iterator[Span]:
        """Time one pass as the root span, with every trace point installed."""
        with self.installed():
            self.root.start = time.perf_counter()
            try:
                yield self.root
            finally:
                self.root.end = time.perf_counter()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(self.root.to_json(self.run_id)) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span.to_json(self.run_id)) + "\n")

    # ------------------------------------------------------------------
    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer counts, inclusive and self times for the recorded pass."""
        child_time: Dict[int, float] = {}
        for span in self.spans:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + (
                span.end - span.start
            )

        calls: Dict[str, int] = {}
        total: Dict[str, float] = {}
        self_time: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        errors: Dict[str, int] = {}
        repair_ok = 0
        qbp_iterations = 0
        for span in self.spans:
            duration = span.end - span.start
            calls[span.name] = calls.get(span.name, 0) + 1
            total[span.name] = total.get(span.name, 0.0) + duration
            layer = "gap" if span.name.startswith("gap.") else span.name
            self_time[layer] += duration - child_time.get(span.id, 0.0)
            attrs = span.attrs or {}
            if "error" in attrs:
                errors[span.name] = errors.get(span.name, 0) + 1
            if span.name == "repair" and attrs.get("ok"):
                repair_ok += 1
            if span.name == "qbp":
                qbp_iterations += attrs.get("iterations", 0)

        def n(name: str) -> int:
            return calls.get(name, 0)

        def s(name: str) -> float:
            return total.get(name, 0.0)

        def ratio(num: int, den: int) -> float:
            return num / den if den else 1.0

        wall = self.root.end - self.root.start
        gap_calls = sum(n(f"gap.{r}") for r in GAP_RUNGS)
        gap_failed = sum(errors.get(f"gap.{r}", 0) for r in GAP_RUNGS)
        metrics: Dict[str, float] = {
            "initial.calls": n("initial"),
            "initial.s": s("initial"),
            "bootstrap.calls": n("bootstrap"),
            "bootstrap.s": s("bootstrap"),
            "bootstrap.attempts": n("bootstrap.qbp"),
            "bootstrap.fallbacks": errors.get("bootstrap", 0),
            "repair.calls": n("repair"),
            "repair.s": s("repair"),
            "repair.ok_ratio": ratio(repair_ok, n("repair")),
            "merge.calls": n("merge"),
            "merge.s": s("merge"),
            "qbp.s": s("qbp"),
            "qbp.iterations": qbp_iterations,
            "eta.calls": n("eta"),
            "eta.s": s("eta"),
            "gap.calls": gap_calls,
            "gap.s": sum(s(f"gap.{r}") for r in GAP_RUNGS),
        }
        for rung in GAP_RUNGS:
            metrics[f"gap.{rung}.calls"] = n(f"gap.{rung}")
            metrics[f"gap.{rung}.s"] = s(f"gap.{rung}")
            metrics[f"gap.{rung}.infeasible"] = errors.get(f"gap.{rung}", 0)
        metrics["gap.useful_ratio"] = ratio(gap_calls - gap_failed, gap_calls)
        metrics.update(
            {
                "gfm.s": s("gfm"),
                "gkl.s": s("gkl"),
                "gkl.swap_scan.calls": n("gkl.swap_scan"),
                "gkl.swap_scan.s": s("gkl.swap_scan"),
                "delta.scan.calls": n("delta.scan"),
                "delta.scan.s": s("delta.scan"),
                "delta.apply.calls": n("delta.apply"),
                "delta.apply.s": s("delta.apply"),
            }
        )
        for counter in DELTA_COUNTERS:
            metrics[f"delta.{counter}"] = sum(
                getattr(stats, counter) for stats in self.delta_stats
            )
        metrics["verify.calls"] = n("verify")
        metrics["verify.s"] = s("verify")
        for layer in LAYERS:
            metrics[f"self_s.{layer}"] = self_time[layer]
        unattributed = wall - child_time.get(0, 0.0)
        metrics["unattributed_s"] = unattributed
        metrics["unattributed_share"] = unattributed / wall if wall > 0 else 0.0
        metrics["traced_wall_s"] = wall
        return metrics


COUNT_SUFFIXES = (".calls", ".attempts", ".fallbacks", ".infeasible", ".iterations")


def deterministic_counts(metrics: Dict[str, float]) -> Dict[str, int]:
    """The per-layer counts that must repeat exactly for the same code and inputs."""
    return {
        name: int(value)
        for name, value in metrics.items()
        if name.endswith(COUNT_SUFFIXES)
        or name in {f"delta.{c}" for c in DELTA_COUNTERS}
    }
