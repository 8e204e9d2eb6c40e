"""The service's request vocabulary: one JSON document per solve.

A :class:`SolveRequest` is the wire form of one partitioning problem
plus its solver configuration.  Two groups of fields exist:

* **semantic** fields (circuit, grid, capacity, timing, solver,
  config, seed) - they determine the solution bit for bit, because
  every solver in the repo is deterministic in ``(problem, config,
  seed)``.  The solver name is validated against the registry at
  admission (unknown solver -> 400 listing the registered names) and
  ``config`` is normalised through the solver's
  :class:`~repro.engine.registry.SolverConfig` - every field filled
  with its default - before it is folded into
  :meth:`SolveRequest.digest`, the content address the result cache
  and in-flight coalescing key on (the same digesting rules as the run
  ledger's config digest).
* **transport** fields (``deadline_seconds``, ``priority``) - they
  shape *how* a request is served (budget, queue order), never *what*
  the answer is, so they are excluded from the digest exactly as the
  telemetry flags are excluded from the ledger's config digest.  A
  deadline can still truncate a solve; the executor therefore caches
  only results whose ``stop_reason`` is ``completed``, so every cached
  entry is the full deterministic answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from repro.core.problem import PartitioningProblem
from repro.engine.registry import SolverConfig, UnknownSolverError
from repro.netlist.circuit import Circuit
from repro.netlist.io import circuit_from_dict
from repro.obs.ledger import config_digest
from repro.pipeline import get_solver, solver_names
from repro.runtime.budget import Budget
from repro.timing.constraints import TimingConstraints
from repro.topology.grid import grid_topology, slack_capacity

SOLVERS = solver_names()
"""Registered solver names a request may ask for (registry-derived)."""

DEFAULT_CAPACITY_SLACK = 0.15
"""Headroom over balanced load when no explicit capacity is given."""

REQUEST_FIELDS = frozenset(
    {
        "circuit",
        "grid",
        "capacity",
        "capacity_slack",
        "timing",
        "solver",
        "config",
        "seed",
        "deadline_seconds",
        "priority",
    }
)
"""Every key a request document may carry (unknown keys are rejected)."""

TRANSPORT_FIELDS = frozenset({"deadline_seconds", "priority"})
"""Fields excluded from the content digest (see module docstring)."""


class BadRequestError(ValueError):
    """A request document that cannot be turned into a problem."""


def _parse_grid(value) -> Tuple[int, int]:
    if isinstance(value, str):
        try:
            rows, cols = value.lower().split("x")
            value = (int(rows), int(cols))
        except ValueError:
            raise BadRequestError(f"grid must look like '4x4', got {value!r}") from None
    try:
        rows, cols = (int(value[0]), int(value[1]))
    except (TypeError, ValueError, IndexError):
        raise BadRequestError(f"grid must be [rows, cols], got {value!r}") from None
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise BadRequestError(f"grid {rows}x{cols} has fewer than 2 partitions")
    return rows, cols


@dataclass(frozen=True)
class SolveRequest:
    """One partitioning request (see the module docstring for field roles)."""

    circuit: Dict[str, Any]
    grid: Tuple[int, int] = (4, 4)
    capacity: Optional[float] = None
    capacity_slack: float = DEFAULT_CAPACITY_SLACK
    timing: Optional[Dict[str, Any]] = None
    solver: str = "qbp"
    config: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    deadline_seconds: Optional[float] = field(default=None, compare=False)
    priority: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        # Validate the solver against the registry and normalise the
        # config to its full canonical form (every field present with
        # its default), so equivalent requests digest identically no
        # matter which subset of keys the document spelled out.
        try:
            spec = get_solver(self.solver)
        except UnknownSolverError as exc:
            raise BadRequestError(str(exc)) from None
        if not isinstance(self.config, (dict, SolverConfig)):
            raise BadRequestError("'config' must be a JSON object")
        try:
            normalised = spec.make_config(self.config).canonical()
        except ValueError as exc:
            raise BadRequestError(f"bad {self.solver} config: {exc}") from None
        object.__setattr__(self, "config", normalised)

    def solver_config(self) -> SolverConfig:
        """The request's config as its solver's typed config instance."""
        return get_solver(self.solver).make_config(self.config)

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SolveRequest":
        """Validate and normalise one request document.

        Raises :class:`BadRequestError` with a one-line reason on any
        schema violation, so the server can map it straight to a 400.
        """
        if not isinstance(payload, dict):
            raise BadRequestError(
                f"request must be a JSON object, got {type(payload).__name__}"
            )
        unknown = sorted(set(payload) - REQUEST_FIELDS)
        if unknown:
            raise BadRequestError(f"unknown request field(s): {', '.join(unknown)}")
        if "circuit" not in payload:
            raise BadRequestError("request is missing 'circuit'")
        circuit = payload["circuit"]
        if not isinstance(circuit, dict):
            raise BadRequestError("'circuit' must be a circuit JSON document")

        try:
            request = cls(
                circuit=circuit,
                grid=_parse_grid(payload.get("grid", (4, 4))),
                capacity=(
                    None if payload.get("capacity") is None
                    else float(payload["capacity"])
                ),
                capacity_slack=float(
                    payload.get("capacity_slack", DEFAULT_CAPACITY_SLACK)
                ),
                timing=payload.get("timing"),
                solver=str(payload.get("solver", "qbp")),
                config=(
                    {} if payload.get("config") is None else payload["config"]
                ),
                seed=int(payload.get("seed", 0)),
                deadline_seconds=(
                    None if payload.get("deadline_seconds") is None
                    else float(payload["deadline_seconds"])
                ),
                priority=int(payload.get("priority", 0)),
            )
        except BadRequestError:
            raise
        except (TypeError, ValueError) as exc:
            raise BadRequestError(f"malformed request field: {exc}") from exc
        request.validate()
        return request

    def validate(self) -> None:
        if self.capacity is not None and self.capacity <= 0:
            raise BadRequestError(f"capacity must be > 0, got {self.capacity}")
        if self.capacity_slack < 0:
            raise BadRequestError(
                f"capacity_slack must be >= 0, got {self.capacity_slack}"
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise BadRequestError(
                f"deadline_seconds must be > 0, got {self.deadline_seconds}"
            )
        if self.timing is not None and not isinstance(self.timing, dict):
            raise BadRequestError("'timing' must be a timing JSON document")

    # ------------------------------------------------------------------
    def canonical(self) -> Dict[str, Any]:
        """The semantic fields only, in their normalised form.

        ``config`` is the solver's *full* canonical config (defaults
        filled in), so spelling a default out explicitly does not
        change the digest.
        """
        return {
            "circuit": self.circuit,
            "grid": list(self.grid),
            "capacity": self.capacity,
            "capacity_slack": self.capacity_slack,
            "timing": self.timing,
            "solver": self.solver,
            "config": dict(self.config),
            "seed": self.seed,
        }

    def digest(self) -> str:
        """The content address of this problem (stable across key order)."""
        return config_digest(self.canonical())

    def to_dict(self) -> Dict[str, Any]:
        """The full wire form, transport fields included."""
        payload = self.canonical()
        payload["deadline_seconds"] = self.deadline_seconds
        payload["priority"] = self.priority
        return payload

    def with_transport(
        self,
        *,
        deadline_seconds: Optional[float] = None,
        priority: Optional[int] = None,
    ) -> "SolveRequest":
        """A copy with different transport fields (same digest)."""
        return replace(
            self,
            deadline_seconds=(
                self.deadline_seconds if deadline_seconds is None else deadline_seconds
            ),
            priority=self.priority if priority is None else priority,
        )

    # ------------------------------------------------------------------
    def build_circuit(self) -> Circuit:
        try:
            return circuit_from_dict(self.circuit)
        except (KeyError, TypeError, ValueError) as exc:
            raise BadRequestError(f"bad circuit document: {exc}") from exc

    def build_problem(self) -> PartitioningProblem:
        """Materialise the :class:`PartitioningProblem` this request names."""
        circuit = self.build_circuit()
        rows, cols = self.grid
        capacity = self.capacity
        if capacity is None:
            capacity = slack_capacity(circuit, rows * cols, self.capacity_slack)
        topology = grid_topology(rows, cols, capacity=capacity)
        timing = None
        if self.timing is not None:
            # A document without ``num_components`` is for this circuit.
            n = circuit.num_components
            try:
                timing = TimingConstraints.from_dict({"num_components": n, **self.timing})
            except ValueError as exc:
                raise BadRequestError(f"bad timing document: {exc}") from exc
            if timing.num_components != n:
                raise BadRequestError(
                    f"timing document is for {timing.num_components} components, "
                    f"circuit has {n}"
                )
        try:
            return PartitioningProblem(circuit, topology, timing=timing)
        except ValueError as exc:
            raise BadRequestError(f"inconsistent problem: {exc}") from exc

    def make_budget(self, parent: Optional[Budget] = None) -> Optional[Budget]:
        """This request's budget lease.

        With a ``parent`` (the server's drain budget) the lease shares
        its cancel flag, so one SIGTERM stops every in-flight solve
        cooperatively; the deadline is the tighter of the two.
        """
        if parent is not None:
            if self.deadline_seconds is None and parent.wall_seconds is None:
                return parent.scoped(None)
            return parent.scoped(self.deadline_seconds)
        if self.deadline_seconds is None:
            return None
        return Budget(wall_seconds=self.deadline_seconds)


__all__ = [
    "BadRequestError",
    "DEFAULT_CAPACITY_SLACK",
    "REQUEST_FIELDS",
    "SOLVERS",
    "SolveRequest",
    "TRANSPORT_FIELDS",
]
