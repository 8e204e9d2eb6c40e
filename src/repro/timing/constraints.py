"""Timing-constraint sets (the paper's ``D_C`` matrix) and their derivation.

The paper's C2 constraints are ``D(A(j1), A(j2)) <= D_C(j1, j2)`` for all
component pairs, with ``D_C = inf`` meaning "unconstrained".  Real
problems constrain only a sparse subset of pairs (Table I lists the
number of *critical* constraints after discarding the vacuous ones), so
:class:`TimingConstraints` stores budgets sparsely.

Two derivation routes are provided:

* :func:`derive_budgets` - the designer's route: run STA against a cycle
  time and split each timing edge's slack evenly over the edges of its
  longest path (zero-slack-style apportioning), giving each connected
  pair a maximum-routing-delay budget.
* :func:`synthesize_feasible_constraints` - the workload route: given a
  reference assignment, emit budgets that the reference satisfies with a
  configurable margin.  This guarantees the feasible region ``F_R`` of
  the embedding theorems is non-empty while keeping constraints tight.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.circuit import Circuit
from repro.timing.graph import TimingGraph
from repro.utils.matrices import INFINITE_BUDGET
from repro.utils.rng import RandomSource, ensure_rng


class TimingConstraints:
    """A sparse set of maximum routing-delay budgets between components.

    Budgets are directed: ``budget(j1, j2)`` bounds the routing delay of
    signals travelling from ``j1`` to ``j2``.  Most workflows add both
    directions (see ``symmetric=True`` on :meth:`add`), matching the
    symmetric ``D_C`` of the paper's example.
    """

    def __init__(self, num_components: int) -> None:
        if num_components <= 0:
            raise ValueError(f"num_components must be positive, got {num_components}")
        self.num_components = num_components
        self._budgets: Dict[Tuple[int, int], float] = {}

    # ------------------------------------------------------------------
    def add(self, j1: int, j2: int, budget: float, *, symmetric: bool = False) -> None:
        """Constrain the pair ``(j1, j2)`` to at most ``budget`` delay.

        Adding a tighter budget for an existing pair keeps the minimum;
        an infinite budget is a no-op (it constrains nothing).
        """
        j1, j2 = int(j1), int(j2)
        n = self.num_components
        if not (0 <= j1 < n and 0 <= j2 < n):
            raise IndexError(f"pair ({j1}, {j2}) out of range for {n} components")
        if j1 == j2:
            raise ValueError("a component has no routing delay to itself")
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        if np.isinf(budget):
            return
        key = (j1, j2)
        current = self._budgets.get(key, INFINITE_BUDGET)
        self._budgets[key] = min(current, float(budget))
        if symmetric:
            self.add(j2, j1, budget)

    def budget(self, j1: int, j2: int) -> float:
        """The budget for ``(j1, j2)``; ``inf`` when unconstrained."""
        if j1 == j2:
            return 0.0
        return self._budgets.get((int(j1), int(j2)), INFINITE_BUDGET)

    def __len__(self) -> int:
        """Number of stored (directed) constraints."""
        return len(self._budgets)

    @property
    def num_pairs(self) -> int:
        """Number of distinct unordered constrained pairs."""
        return len({(min(a, b), max(a, b)) for (a, b) in self._budgets})

    def items(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate ``(j1, j2, budget)`` in deterministic order."""
        for (j1, j2) in sorted(self._budgets):
            yield j1, j2, self._budgets[(j1, j2)]

    def pairs(self) -> List[Tuple[int, int]]:
        """Sorted list of constrained (directed) pairs."""
        return sorted(self._budgets)

    # ------------------------------------------------------------------
    def to_matrix(self) -> np.ndarray:
        """Dense ``N x N`` ``D_C`` matrix (``inf`` off-diagonal default)."""
        n = self.num_components
        mat = np.full((n, n), INFINITE_BUDGET)
        np.fill_diagonal(mat, 0.0)
        for (j1, j2), budget in self._budgets.items():
            mat[j1, j2] = budget
        return mat

    @classmethod
    def from_matrix(cls, matrix) -> "TimingConstraints":
        """Build from a dense ``D_C``; finite off-diagonal entries become constraints."""
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"D_C must be square, got shape {mat.shape}")
        constraints = cls(mat.shape[0])
        for j1 in range(mat.shape[0]):
            for j2 in range(mat.shape[1]):
                if j1 != j2 and np.isfinite(mat[j1, j2]):
                    constraints.add(j1, j2, float(mat[j1, j2]))
        return constraints

    def to_dict(self) -> Dict[str, object]:
        """The JSON document: ``{"num_components", "constraints"}``.

        ``constraints`` lists ``[j1, j2, budget]`` triples in
        :meth:`items` order.
        """
        return {
            "num_components": self.num_components,
            "constraints": [[j1, j2, budget] for j1, j2, budget in self.items()],
        }

    @classmethod
    def from_dict(cls, data) -> "TimingConstraints":
        """Inverse of :meth:`to_dict`.

        Any malformed part raises ``ValueError``: a missing or
        non-integer count, a non-list entry, a wrong arity, a
        non-numeric or out-of-range field.
        """
        if not isinstance(data, dict):
            raise ValueError("timing document must be a JSON object")
        if "num_components" not in data:
            raise ValueError("timing document is missing 'num_components'")
        try:
            timing = cls(int(data["num_components"]))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad timing 'num_components': {exc}") from None
        entries = data.get("constraints", [])
        if not isinstance(entries, list):
            raise ValueError("timing 'constraints' must be a list")
        for entry in entries:
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise ValueError(f"malformed timing constraint: {entry!r}")
            try:
                timing.add(int(entry[0]), int(entry[1]), float(entry[2]))
            except (TypeError, ValueError, IndexError) as exc:
                raise ValueError(
                    f"bad timing constraint {entry!r}: {exc}"
                ) from None
        return timing

    # ------------------------------------------------------------------
    def violations(
        self, assignment: Sequence[int], delay_matrix: np.ndarray
    ) -> List[Tuple[int, int, float, float]]:
        """All violated constraints under ``assignment``.

        Returns ``(j1, j2, delay, budget)`` tuples where
        ``delay = D[A(j1), A(j2)] > budget``.
        """
        part = np.asarray(assignment, dtype=int)
        out = []
        for (j1, j2), budget in sorted(self._budgets.items()):
            delay = float(delay_matrix[part[j1], part[j2]])
            if delay > budget:
                out.append((j1, j2, delay, budget))
        return out

    def is_satisfied(self, assignment: Sequence[int], delay_matrix: np.ndarray) -> bool:
        """``True`` when no constraint is violated under ``assignment``."""
        part = np.asarray(assignment, dtype=int)
        for (j1, j2), budget in self._budgets.items():
            if delay_matrix[part[j1], part[j2]] > budget:
                return False
        return True

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised view ``(sources, targets, budgets)`` for numpy code."""
        if not self._budgets:
            empty = np.empty(0, dtype=int)
            return empty, empty.copy(), np.empty(0, dtype=float)
        keys = sorted(self._budgets)
        src = np.array([k[0] for k in keys], dtype=int)
        dst = np.array([k[1] for k in keys], dtype=int)
        budgets = np.array([self._budgets[k] for k in keys], dtype=float)
        return src, dst, budgets

    def __repr__(self) -> str:
        return (
            f"TimingConstraints(components={self.num_components}, "
            f"constraints={len(self)})"
        )


def derive_budgets(
    graph: TimingGraph,
    cycle_time: float,
    *,
    min_budget: float = 0.0,
    symmetric: bool = True,
) -> TimingConstraints:
    """Derive routing budgets from slack, the designer's route to ``D_C``.

    Runs zero-routing STA against ``cycle_time``, then gives every timing
    edge ``(a, b)`` the budget ``slack(a, b) / path_edges(a, b)`` where
    ``path_edges`` is the edge count of the longest input-output path
    through the edge - the classic even slack apportioning.  Negative
    slacks (cycle time already violated by intrinsic delays) raise
    ``ValueError`` since no routing budget can fix them.

    Parameters
    ----------
    min_budget:
        Floor applied to every derived budget.
    symmetric:
        Also constrain the reverse direction with the same budget, as in
        the paper's symmetric example matrix.
    """
    report = graph.analyze(cycle_time)
    if report.worst_slack < 0:
        raise ValueError(
            "cycle time is infeasible: intrinsic delays alone exceed it "
            f"(worst slack {report.worst_slack:.4g})"
        )
    slacks = graph.edge_slacks(report)

    order = graph.topological_order()
    fwd_edges = np.zeros(graph.num_nodes, dtype=int)
    for node in order:
        for nb in graph.successors(node):
            fwd_edges[nb] = max(fwd_edges[nb], fwd_edges[node] + 1)
    bwd_edges = np.zeros(graph.num_nodes, dtype=int)
    for node in reversed(order):
        for nb in graph.successors(node):
            bwd_edges[node] = max(bwd_edges[node], bwd_edges[nb] + 1)

    constraints = TimingConstraints(graph.num_nodes)
    for (a, b), slack in slacks.items():
        # Longest path through (a, b) has this many edges sharing the slack.
        path_edges = fwd_edges[a] + 1 + bwd_edges[b]
        budget = max(min_budget, slack / max(1, path_edges))
        constraints.add(a, b, budget, symmetric=symmetric)
    return constraints


def synthesize_feasible_constraints(
    circuit: Circuit,
    delay_matrix: np.ndarray,
    reference_assignment: Sequence[int],
    count: int,
    *,
    tightness: float = 0.5,
    max_margin: int = 2,
    min_budget: float = 1.0,
    seed: RandomSource = None,
) -> TimingConstraints:
    """Generate ``count`` unordered pair constraints feasible by construction.

    Pairs are picked from the circuit's connected pairs first (heaviest
    wire bundles first - the most electrically critical pairs), then,
    if ``count`` exceeds the connected-pair count, from random unconnected
    pairs (the paper notes cycle-time constraints may exist without a
    direct electrical connection).  Each selected pair ``(j1, j2)`` gets
    the symmetric budget ``max(D[ref(j1), ref(j2)], min_budget) + margin``
    where ``margin`` is 0 with probability ``tightness`` and uniform in
    ``[1, max_margin]`` otherwise - so the reference assignment always
    satisfies every constraint (``F_R`` is provably non-empty) while a
    ``tightness`` fraction of constraints is exactly tight at the
    reference.  ``min_budget`` (default: one grid pitch) keeps budgets
    physically plausible: a zero budget would force a pair into one
    partition, and thousands of those collapse the feasible region to
    essentially the reference itself.

    Returns a :class:`TimingConstraints` whose :attr:`~TimingConstraints.num_pairs`
    equals ``count``.
    """
    if not 0.0 <= tightness <= 1.0:
        raise ValueError(f"tightness must be in [0, 1], got {tightness}")
    if max_margin < 0:
        raise ValueError(f"max_margin must be >= 0, got {max_margin}")
    if min_budget < 0:
        raise ValueError(f"min_budget must be >= 0, got {min_budget}")
    n = circuit.num_components
    ref = np.asarray(reference_assignment, dtype=int)
    if ref.shape != (n,):
        raise ValueError(
            f"reference_assignment must have length {n}, got shape {ref.shape}"
        )
    max_pairs = n * (n - 1) // 2
    if count > max_pairs:
        raise ValueError(f"count {count} exceeds the {max_pairs} available pairs")

    rng = ensure_rng(seed)
    # Heaviest connected pairs first (deterministic ordering).
    weights: Dict[Tuple[int, int], float] = {}
    for wire in circuit.wires():
        key = (min(wire.source, wire.target), max(wire.source, wire.target))
        weights[key] = weights.get(key, 0.0) + wire.weight
    connected = sorted(weights, key=lambda k: (-weights[k], k))

    selected: List[Tuple[int, int]] = connected[:count]
    chosen = set(selected)
    while len(selected) < count:
        a = int(rng.integers(0, n))
        b = int(rng.integers(0, n))
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        if key in chosen:
            continue
        chosen.add(key)
        selected.append(key)

    constraints = TimingConstraints(n)
    for (j1, j2) in selected:
        base = max(float(delay_matrix[ref[j1], ref[j2]]), min_budget)
        reverse = max(float(delay_matrix[ref[j2], ref[j1]]), min_budget)
        if rng.random() < tightness or max_margin == 0:
            margin = 0.0
        else:
            margin = float(rng.integers(1, max_margin + 1))
        constraints.add(j1, j2, base + margin)
        constraints.add(j2, j1, reverse + margin)
    return constraints
