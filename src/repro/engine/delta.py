"""The shared incremental-evaluation kernel (:class:`DeltaCache`).

The generalized Burkard iteration and the GFM/GKL/annealing baselines
reduce to the same primitive: evaluate the change in ``yT Q y`` when one
component moves (or two swap) under C1/C2 feasibility.
:class:`DeltaCache` is the single implementation of that primitive.  It
maintains, for an evolving assignment:

* ``delta`` — the ``(N, M)`` matrix of exact objective changes for
  moving each component to each partition (the GFM gain entries are
  ``-delta``; the paper's "(M-1) gain entries per component"),
* ``timing_block`` — an ``(N, M)`` count of timing constraints each
  candidate move would violate (0 = timing-feasible move), whose rows
  come from :meth:`TimingIndex.conflict_rows
  <repro.core.constraints.TimingIndex.conflict_rows>`,
* partition loads (a :class:`~repro.core.constraints.CapacityTracker`)
  for O(1) capacity checks.

All three are updated *incrementally* after a move: only the rows of the
moved component's wire/constraint neighbours are recomputed, so a full
GFM pass costs O(nnz(A) * M) instead of O(N^2 * M).

Touched rows are refreshed with whole-array sparse products
(:meth:`DeltaCache.all_move_deltas` is the public full-scan form) and
the timing index's vectorised constraint fold.  The feasibility repair
and merge projections (:mod:`repro.solvers.repair`) and the inner GAP
do not use the cache: they evaluate C2 against assignments they mutate
themselves, through the same :class:`TimingIndex`.  The per-component
:meth:`DeltaCache.move_deltas` / ``_timing_block_row`` are kept only as
a reference oracle: :meth:`DeltaCache.audit`, the tests and
``benchmarks/bench_scaling.py`` check the production path against them.

The same precomputed sparse views also back the Burkard iteration's
STEP 3 vector: :meth:`eta` evaluates the per-component x per-partition
marginal-cost rows of ``Q_hat`` directly from the sparse
interconnection matrix — the kernel can therefore be built *without* an
assignment (``assignment=None``) when only the stateless row products
are needed.

Layering: this module lives in ``repro.engine`` and imports only from
``repro.core`` (machine-enforced by ``scripts/check_imports.py``); the
solvers and baselines build on it, never the other way around.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.core.assignment import Assignment
from repro.core.constraints import CapacityTracker, TimingIndex
from repro.core.objective import ObjectiveEvaluator
from repro.core.problem import PartitioningProblem

ETA_MODES = ("burkard", "diagonal", "symmetric")
"""How :meth:`DeltaCache.eta` treats the ``Q_hat`` diagonal (see
:func:`repro.solvers.qbp.iteration.solve_qbp` for the semantics of each)."""


class DeltaStats:
    """Hot-path counters for one :class:`DeltaCache` instance.

    Plain integer attributes bumped unconditionally (an ``int += 1`` is
    far cheaper than any telemetry lookup, so the kernel stays fast with
    telemetry off) and *drained* into ``delta.*`` counters by
    :meth:`publish`.  The split the counters expose is the cache's
    hit/miss story: ``row_refreshes``/``timing_row_refreshes`` are the
    incremental updates (cache hits - only neighbour rows recomputed),
    ``full_rebuilds`` are the full ``(N, M)`` recomputations (misses:
    construction, :meth:`DeltaCache.reset`).
    """

    __slots__ = (
        "eta_evals",
        "moves",
        "swaps",
        "row_refreshes",
        "timing_row_refreshes",
        "full_rebuilds",
        "_published",
    )

    COUNTER_PREFIX = "delta."

    def __init__(self) -> None:
        self.eta_evals = 0
        self.moves = 0
        self.swaps = 0
        self.row_refreshes = 0
        self.timing_row_refreshes = 0
        self.full_rebuilds = 0
        self._published: dict = {}

    def as_dict(self) -> dict:
        return {
            "eta_evals": self.eta_evals,
            "moves": self.moves,
            "swaps": self.swaps,
            "row_refreshes": self.row_refreshes,
            "timing_row_refreshes": self.timing_row_refreshes,
            "full_rebuilds": self.full_rebuilds,
        }

    def publish(self, telemetry) -> None:
        """Drain counts-since-last-publish into ``delta.*`` counters.

        Safe to call repeatedly (per solve, per restart): only the
        increment since the previous publish is added, so shared kernels
        never double-count.  No-op on a disabled bundle.
        """
        if telemetry is None or not telemetry.enabled:
            return
        for name, value in self.as_dict().items():
            delta = value - self._published.get(name, 0)
            if delta:
                telemetry.counter(self.COUNTER_PREFIX + name).inc(delta)
                self._published[name] = value


class DeltaCache:
    """Incrementally maintained move/swap deltas and feasibility masks.

    Parameters
    ----------
    problem:
        The partitioning problem; its sparse views are extracted once.
    assignment:
        The starting assignment for the stateful ``delta`` /
        ``timing_block`` / load tracking.  ``None`` builds a *stateless*
        kernel exposing only the row products (:meth:`eta`,
        :meth:`marginal_rows`); call :meth:`reset` later to attach an
        assignment.
    evaluator:
        An existing :class:`~repro.core.objective.ObjectiveEvaluator`
        for ``problem`` to share (its wire/constraint arrays are
        reused); ``None`` constructs one.
    """

    def __init__(
        self,
        problem: PartitioningProblem,
        assignment: Optional[Assignment] = None,
        *,
        evaluator: Optional[ObjectiveEvaluator] = None,
    ) -> None:
        self.problem = problem
        self.evaluator = evaluator if evaluator is not None else ObjectiveEvaluator(problem)
        self.timing_index = TimingIndex(problem.timing, problem.delay_matrix)
        self.n = problem.num_components
        self.m = problem.num_partitions
        self.sizes = problem.sizes()
        self.capacities = problem.capacities()
        self.B = problem.cost_matrix
        self.BT = problem.cost_matrix.T.copy()
        self.D = problem.delay_matrix
        self.DT = problem.delay_matrix.T.copy()
        self.P = problem.linear_cost_matrix()
        self.alpha, self.beta = problem.alpha, problem.beta

        self._A = problem.sparse_connection_matrix()
        self._AT = self._A.T.tocsr()
        # Wire adjacency and timing-constraint arrays reused from the
        # evaluator (the single place they are extracted).
        self._out_adj = self.evaluator._out_adj
        self._in_adj = self.evaluator._in_adj
        self.t_src = self.evaluator.t_src
        self.t_dst = self.evaluator.t_dst
        self.t_budget = self.evaluator.t_budget
        self.t_wire = self.evaluator.t_wire

        self.stats = DeltaStats()
        self.part: Optional[np.ndarray] = None
        self.capacity: Optional[CapacityTracker] = None
        self.delta: Optional[np.ndarray] = None
        self.timing_block: Optional[np.ndarray] = None
        # Row k holds B[part[k], :] / BT[part[k], :], kept in sync by
        # apply_move so row refreshes skip the (N, M) gather a fresh
        # B[part, :] would cost on every move.
        self._b_part: Optional[np.ndarray] = None
        self._bt_part: Optional[np.ndarray] = None
        if assignment is not None:
            self.reset(assignment)

    # ------------------------------------------------------------------
    # Stateful tracking lifecycle
    # ------------------------------------------------------------------
    def reset(self, assignment: Assignment) -> None:
        """(Re)attach the kernel to ``assignment`` and rebuild all state."""
        self.stats.full_rebuilds += 1
        self.part = self.problem.validate_assignment_shape(assignment.part).copy()
        self.capacity = CapacityTracker.for_assignment(
            Assignment(self.part, self.m), self.sizes, self.capacities
        )
        self._b_part = self.B[self.part, :].copy()
        self._bt_part = self.BT[self.part, :].copy()
        self.delta = self.all_move_deltas()
        self.timing_block = self._full_timing_block()

    @property
    def loads(self) -> np.ndarray:
        """Per-partition assigned size (the capacity tracker's view)."""
        return self.capacity.loads

    # ------------------------------------------------------------------
    # Stateless row products (shared with the Burkard eta evaluation)
    # ------------------------------------------------------------------
    def in_rows(self, part: np.ndarray) -> np.ndarray:
        """``(N, M)`` rows ``sum_k a[k, j] * B[part[k], i]`` (unscaled)."""
        return np.asarray(self._AT @ self.B[part, :])

    def out_rows(self, part: np.ndarray) -> np.ndarray:
        """``(N, M)`` rows ``sum_k a[j, k] * B[i, part[k]]`` (unscaled)."""
        return np.asarray(self._A @ self.BT[part, :])

    def marginal_rows(self, part: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Both directed row products for ``part`` (in-edges, out-edges)."""
        return self.in_rows(part), self.out_rows(part)

    def eta(self, part: np.ndarray, *, mode: str, penalty: float) -> np.ndarray:
        """Burkard STEP 3: ``eta[j, i] = sum_r qhat[r, (i, j)] u_r``.

        Computed from the sparse ``A`` per the paper's Section 4.3: the
        quadratic part is one sparse matrix product per direction;
        timing penalties overwrite the affected ``a*b`` contributions
        vectorised over the constraint list.  ``mode`` is one of
        :data:`ETA_MODES`.
        """
        self.stats.eta_evals += 1
        n = self.n
        b_rows = self.B[part, :]  # (N, M): b_rows[j1, i2] = B[A(j1), i2]
        eta = self.beta * (self._AT @ b_rows)
        eta = np.asarray(eta)
        self._apply_timing(
            eta, part, self.D, self.B, self.t_src, self.t_dst, penalty, out_rows=False
        )

        if mode == "symmetric":
            bt_rows = self.BT[part, :]  # (N, M): bt_rows[j2, i1] = B[i1, A(j2)]
            eta_out = self.beta * np.asarray(self._A @ bt_rows)
            self._apply_timing(
                eta_out, part, self.DT, self.BT, self.t_dst, self.t_src, penalty,
                out_rows=True,
            )
            eta = eta + eta_out

        if self.P is not None and self.alpha:
            if mode == "burkard":
                # Paper pseudocode: the diagonal only contributes where u is 1.
                idx = np.arange(n)
                eta[idx, part] += self.alpha * self.P[part, idx]
            else:
                eta += self.alpha * self.P.T
        return eta

    def _apply_timing(
        self,
        eta: np.ndarray,
        part: np.ndarray,
        delay: np.ndarray,
        cost: np.ndarray,
        anchors: np.ndarray,
        movers: np.ndarray,
        penalty: float,
        *,
        out_rows: bool,
    ) -> None:
        """Overwrite timing-violating candidate contributions with the penalty.

        For the in-direction (``out_rows=False``): constraint
        ``(j1, j2)`` with ``j1`` anchored at ``part[j1]`` makes candidate
        ``(i2, j2)`` cost ``penalty`` instead of ``beta*a*B[A(j1), i2]``
        whenever ``D[A(j1), i2] > budget``.  The out-direction is the
        transposed statement used by the symmetric eta mode.
        """
        if self.t_src.size == 0:
            return
        anchor_pos = part[anchors]  # (C,)
        delays = delay[anchor_pos, :]  # (C, M)
        violated = delays > self.t_budget[:, None]
        if not violated.any():
            return
        base = self.beta * self.t_wire[:, None] * cost[anchor_pos, :]
        adjustment = np.where(violated, penalty - base, 0.0)
        np.add.at(eta, movers, adjustment)

    # ------------------------------------------------------------------
    # Batch move evaluation
    # ------------------------------------------------------------------
    def all_move_deltas(self, part: Optional[np.ndarray] = None) -> np.ndarray:
        """The complete ``(N, M)`` move-delta matrix, one shot of array ops.

        ``delta[j, i]`` is the exact objective change of moving ``j`` to
        ``i`` under assignment ``part`` (default: the tracked
        assignment).  Wire terms are two sparse matrix products, the
        linear term one broadcast add — no per-component Python loop,
        which is what makes the full candidate scan scale
        (``benchmarks/bench_scaling.py`` measures this against the
        per-component :meth:`move_deltas` reference).
        """
        if part is None:
            part = self.part
        # in_term[j, i]  = sum_k a[k, j] * B[part[k], i]
        # out_term[j, i] = sum_k a[j, k] * B[i, part[k]]
        in_term = self.in_rows(part)
        out_term = self.out_rows(part)
        total = self.beta * (in_term + out_term)
        if self.P is not None and self.alpha:
            total = total + self.alpha * self.P.T
        current = total[np.arange(self.n), part]
        return total - current[:, None]

    # ------------------------------------------------------------------
    # Reference oracle (tests, audit, bench_scaling.py)
    # ------------------------------------------------------------------
    def move_deltas(self, j: int) -> np.ndarray:
        """Move deltas for one component against the current assignment.

        Reference code only, never on a solver path: the ``(M,)`` row
        :meth:`all_move_deltas` computes for ``j``, evaluated on its own
        from the component's wire neighbourhood.  :meth:`audit`, the
        tests and ``benchmarks/bench_scaling.py`` check the production
        path against it.
        """
        part = self.part
        total = np.zeros(self.m)
        out_k, out_w = self._out_adj[j]
        if out_k.size:
            total += self.beta * (self.B[:, part[out_k]] @ out_w)
        in_k, in_w = self._in_adj[j]
        if in_k.size:
            total += self.beta * (in_w @ self.B[part[in_k], :])
        if self.P is not None and self.alpha:
            total += self.alpha * self.P[:, j]
        return total - total[part[j]]

    def _timing_block_row(self, j: int) -> np.ndarray:
        """Violation counts for moving ``j`` to each partition.

        Reference code only: the per-constraint loop that :meth:`audit`
        and the tests check the :meth:`TimingIndex.conflict_rows
        <repro.core.constraints.TimingIndex.conflict_rows>` fold against.
        """
        row = np.zeros(self.m, dtype=np.int32)
        part, d = self.part, self.D
        for k, budget in self.timing_index._out[j]:
            row += d[:, part[k]] > budget
        for k, budget in self.timing_index._in[j]:
            row += d[part[k], :] > budget
        return row

    # ------------------------------------------------------------------
    # Maintenance (construction / incremental refresh)
    # ------------------------------------------------------------------
    def _full_timing_block(self) -> np.ndarray:
        """``(N, M)`` violated-constraint counts per candidate move."""
        return self.timing_index.conflict_rows(self.part)

    def _refresh_rows(self, rows: Iterable[int]) -> None:
        """Recompute the delta rows of ``rows``.

        Two sparse row-slice products against the maintained
        ``B[part, :]`` views — the same arithmetic (and therefore the
        same floats) as a full :meth:`all_move_deltas` rebuild restricted
        to those rows.
        """
        idx = np.asarray(sorted(rows), dtype=np.intp)
        part = self.part
        in_term = np.asarray(self._AT[idx, :] @ self._b_part)
        out_term = np.asarray(self._A[idx, :] @ self._bt_part)
        total = self.beta * (in_term + out_term)
        if self.P is not None and self.alpha:
            total = total + self.alpha * self.P.T[idx, :]
        current = total[np.arange(idx.size), part[idx]]
        self.delta[idx, :] = total - current[:, None]

    def _refresh_timing_rows(self, rows: Iterable[int]) -> None:
        """Recompute the timing-block rows of ``rows``."""
        idx = np.asarray(sorted(rows), dtype=np.intp)
        if idx.size:
            self.timing_block[idx, :] = self.timing_index.conflict_rows(self.part, idx)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def capacity_mask(self) -> np.ndarray:
        """``(N, M)`` boolean: move fits the destination capacity."""
        headroom = self.capacities - self.loads
        return self.sizes[:, None] <= headroom[None, :] + 1e-9

    def feasible_move_mask(self, locked: Optional[np.ndarray] = None) -> np.ndarray:
        """``(N, M)`` boolean: capacity- and timing-feasible non-trivial moves."""
        mask = self.capacity_mask() & (self.timing_block == 0)
        mask[np.arange(self.n), self.part] = False
        if locked is not None:
            mask[locked, :] = False
        return mask

    def best_move(
        self, locked: Optional[np.ndarray] = None
    ) -> Optional[Tuple[int, int, float]]:
        """The feasible move with the smallest delta (largest gain).

        The batched candidate-selection path: one masked argmin over the
        maintained ``(N, M)`` delta matrix, never a per-component scan.
        Returns ``(component, target_partition, delta)`` or ``None`` when
        no feasible move exists.  Deterministic tie-breaking by flattened
        index.
        """
        mask = self.feasible_move_mask(locked)
        if not mask.any():
            return None
        scores = np.where(mask, self.delta, np.inf)
        flat = int(np.argmin(scores))
        j, i = divmod(flat, self.m)
        return j, i, float(scores[j, i])

    def current_cost(self) -> float:
        """Objective of the current assignment."""
        return self.evaluator.cost(self.part)

    def assignment(self) -> Assignment:
        """Snapshot of the current assignment."""
        return Assignment(self.part, self.m)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply_move(self, j: int, new_i: int) -> float:
        """Move component ``j`` to ``new_i`` and update all state.

        Returns the exact objective delta of the move.  The move is
        applied unconditionally (callers enforce feasibility policy).
        """
        old_i = int(self.part[j])
        if old_i == new_i:
            return 0.0
        moved_delta = float(self.delta[j, new_i])
        self.part[j] = new_i
        self.capacity.apply_move(j, old_i, new_i)
        self._b_part[j, :] = self.B[new_i, :]
        self._bt_part[j, :] = self.BT[new_i, :]
        self.stats.moves += 1

        # Wire neighbours' deltas depend on j's position; refresh them.
        touched = {j}
        out_k, _ = self._out_adj[j]
        in_k, _ = self._in_adj[j]
        touched.update(out_k.tolist())
        touched.update(in_k.tolist())
        self._refresh_rows(touched)
        self.stats.row_refreshes += len(touched)

        # Timing rows of constraint partners (and j itself) change too.
        timing_touched = {j}
        timing_touched.update(self.timing_index.partners(j).tolist())
        constrained = [k for k in timing_touched if self.timing_index.degree(k)]
        self._refresh_timing_rows(constrained)
        self.stats.timing_row_refreshes += len(constrained)
        return moved_delta

    def apply_swap(self, j1: int, j2: int) -> float:
        """Exchange two components; returns the exact objective delta."""
        i1, i2 = int(self.part[j1]), int(self.part[j2])
        d = float(self.evaluator.swap_delta(self.part, j1, j2))
        if i1 == i2:
            return 0.0
        self.stats.swaps += 1
        # Two raw moves; loads net out exactly (each also counts as a move).
        self.apply_move(j1, i2)
        self.apply_move(j2, i1)
        return d

    # ------------------------------------------------------------------
    # Swap-specific queries (GKL)
    # ------------------------------------------------------------------
    def swap_delta_matrix(self) -> np.ndarray:
        """Exact ``(N, N)`` swap deltas for the current assignment.

        Built from the move-delta matrix plus a sparse correction for
        directly-wired pairs (whose two move deltas each see the other
        component at a stale position).
        """
        part = self.part
        move_to_partner = self.delta[:, part]  # [j1, j2] = delta(j1 -> part[j2])
        swap = move_to_partner + move_to_partner.T
        src = self.evaluator.wire_src
        if src.size:
            dst = self.evaluator.wire_dst
            w = self.evaluator.wire_w
            b = self.B
            p1, p2 = part[src], part[dst]
            claimed = w * (b[p2, p2] - b[p1, p2] + b[p1, p1] - b[p1, p2])
            actual = w * (b[p2, p1] - b[p1, p2])
            correction = np.where(p1 == p2, 0.0, self.beta * (actual - claimed))
            flat = swap.ravel()
            np.add.at(flat, src * self.n + dst, correction)
            np.add.at(flat, dst * self.n + src, correction)
        return swap

    def swap_capacity_mask(self) -> np.ndarray:
        """``(N, N)`` boolean: the swap respects both capacities.

        Same-partition pairs are trivially feasible (the swap is a
        no-op for loads).
        """
        headroom_of = (self.capacities - self.loads)[self.part]  # per component
        size_diff = self.sizes[None, :] - self.sizes[:, None]  # s2 - s1 at [j1, j2]
        mask = (size_diff <= headroom_of[:, None] + 1e-9) & (
            -size_diff <= headroom_of[None, :] + 1e-9
        )
        mask |= self.part[:, None] == self.part[None, :]
        return mask

    def swap_timing_mask(self) -> np.ndarray:
        """``(N, N)`` boolean: approximately timing-feasible swaps.

        Exact for pairs with no mutual constraint; pairs with a direct
        mutual constraint are evaluated against the partner's *stale*
        position, so callers must confirm a selected pair with
        :meth:`exact_swap_feasible` (GKL does).
        """
        ok_move = self.timing_block == 0  # (N, M)
        to_partner = ok_move[:, self.part]  # [j1, j2] = j1 can move to part[j2]
        return to_partner & to_partner.T

    def exact_swap_feasible(self, j1: int, j2: int) -> bool:
        """Exact C1+C2 feasibility of swapping ``j1`` and ``j2``."""
        i1, i2 = int(self.part[j1]), int(self.part[j2])
        s1, s2 = self.sizes[j1], self.sizes[j2]
        if i1 != i2:
            if self.loads[i1] - s1 + s2 > self.capacities[i1] + 1e-9:
                return False
            if self.loads[i2] - s2 + s1 > self.capacities[i2] + 1e-9:
                return False
        return self.timing_index.swap_is_feasible(self.part, j1, j2)

    # ------------------------------------------------------------------
    # Consistency audit (used by tests)
    # ------------------------------------------------------------------
    def audit(self) -> None:
        """Raise ``AssertionError`` if incremental state drifted.

        The expected state is rebuilt row by row from the reference
        oracle (:meth:`move_deltas`, :meth:`_timing_block_row`), which
        shares no code with the maintained batched path.
        """
        expected_delta = np.zeros_like(self.delta)
        expected_block = np.zeros_like(self.timing_block)
        for j in range(self.n):
            expected_delta[j] = self.move_deltas(j)
            expected_block[j] = self._timing_block_row(j)
        if not np.allclose(self.delta, expected_delta, atol=1e-6):
            raise AssertionError("incremental delta matrix drifted from ground truth")
        if not np.array_equal(self.timing_block, expected_block):
            raise AssertionError("incremental timing block drifted from ground truth")
        expected_loads = np.bincount(
            self.part, weights=self.sizes, minlength=self.m
        )
        if not np.allclose(self.loads, expected_loads, atol=1e-6):
            raise AssertionError("partition loads drifted from ground truth")
