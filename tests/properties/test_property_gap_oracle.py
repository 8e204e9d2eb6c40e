"""Property-based tests: the GAP phases equal the oracle, bit for bit.

:mod:`repro.solvers.gap` walks presorted Python lists where the oracle
(:mod:`tests.solvers.gap_oracle`, the previous numpy implementation)
makes per-item numpy calls.  On random instances built to make the
corner cases common -

* integer-valued costs and repeated sizes, so regrets and deltas tie,
* tight capacities, often integral, so constructions dead-end, the
  best-fit fallback runs and residual capacities tie,
* cost magnitudes from ``1e-3`` to ``1e12``, so the ``1e-9`` and
  ``1e-12`` thresholds meet rounding,
* random static masks and random timing constraint sets,

each phase and :func:`~repro.solvers.gap.solve_gap` as a whole return
exactly what the oracle returns: the same assignment (values and
dtype), cost, criterion, ``improved`` flag or infeasibility error.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import TimingIndex
from repro.solvers import gap
from repro.solvers.gap import DEFAULT_CRITERIA, GapInfeasibleError
from repro.timing.constraints import TimingConstraints
from tests.solvers import gap_oracle


@st.composite
def instances(draw):
    """``(cost, sizes, capacities, static, timing)``; static is item-major."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e7, 1e12]))
    if draw(st.booleans()):
        cost = rng.integers(-3, 6, (m, n)).astype(float)
    else:
        cost = rng.normal(0.0, 1.0, (m, n))
    cost *= scale
    sizes = rng.choice([0.0, 1.0, 1.0, 2.0, 2.0, 3.0], n)
    tightness = draw(st.floats(0.95, 2.0))
    capacities = sizes.sum() / m * tightness * rng.uniform(0.8, 1.2, m)
    if draw(st.booleans()):
        capacities = np.round(capacities)  # residual capacities tie
    static = None
    if draw(st.booleans()):
        static = rng.random((n, m)) < draw(st.floats(0.5, 1.0))
        static[np.arange(n), rng.integers(0, m, n)] = True  # somewhere to go
    timing = None
    if n > 1 and draw(st.booleans()):
        delay = rng.uniform(0.0, 4.0, (m, m))
        np.fill_diagonal(delay, 0.0)
        constraints = TimingConstraints(n)
        for _ in range(draw(st.integers(0, n))):
            j1, j2 = (int(v) for v in rng.choice(n, 2, replace=False))
            constraints.add(
                j1, j2, float(rng.uniform(1.0, 4.5)), symmetric=draw(st.booleans())
            )
        timing = TimingIndex(constraints, delay)
    return cost, sizes, capacities, static, timing


def start_assignment(draw, cost):
    """A random assignment for the improvement phases to polish."""
    m, n = cost.shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(0, m, n)


def assert_same_assignment(got, expected):
    if expected is None:
        assert got is None
        return
    assert got is not None
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


class TestPhases:
    @settings(max_examples=150, deadline=None)
    @given(instances())
    def test_construction(self, case):
        cost, sizes, capacities, static, timing = case
        for criterion in DEFAULT_CRITERIA:
            assert_same_assignment(
                gap._construct(cost, sizes, capacities, criterion, timing, static),
                gap_oracle._construct(cost, sizes, capacities, criterion, timing, static),
            )

    @settings(max_examples=150, deadline=None)
    @given(instances())
    def test_best_fit_decreasing(self, case):
        cost, sizes, capacities, static, timing = case
        assert_same_assignment(
            gap._best_fit_decreasing(cost, sizes, capacities, timing, static),
            gap_oracle._best_fit_decreasing(cost, sizes, capacities, timing, static),
        )

    @settings(max_examples=150, deadline=None)
    @given(instances(), st.data(), st.integers(1, 4))
    def test_single_move_sweep(self, case, data, passes):
        cost, sizes, capacities, static, timing = case
        start = start_assignment(data.draw, cost)
        got, expected = start.copy(), start.copy()
        assert gap._improve(
            got, cost, sizes, capacities, passes, timing, static
        ) == gap_oracle._improve(expected, cost, sizes, capacities, passes, timing, static)
        assert_same_assignment(got, expected)

    @settings(max_examples=150, deadline=None)
    @given(instances(), st.data(), st.integers(1, 4))
    def test_pairwise_exchange(self, case, data, passes):
        cost, sizes, capacities, static, timing = case
        start = start_assignment(data.draw, cost)
        got, expected = start.copy(), start.copy()
        assert gap._exchange_improve(
            got, cost, sizes, capacities, passes, timing, static
        ) == gap_oracle._exchange_improve(
            expected, cost, sizes, capacities, passes, timing, static
        )
        assert_same_assignment(got, expected)


def solve_or_none(solve, *args, **kwargs):
    try:
        return solve(*args, **kwargs)
    except GapInfeasibleError:
        return None


class TestSolveGap:
    @settings(max_examples=200, deadline=None)
    @given(instances(), st.booleans(), st.booleans())
    def test_whole_solve(self, case, improve, timing_in_construction):
        cost, sizes, capacities, static, timing = case
        kwargs = dict(
            improve=improve,
            timing=timing,
            allowed_mask=None if static is None else static.T,
            timing_in_construction=timing_in_construction,
        )
        got = solve_or_none(gap.solve_gap, cost, sizes, capacities, **kwargs)
        expected = solve_or_none(gap_oracle.solve_gap, cost, sizes, capacities, **kwargs)
        if expected is None:
            assert got is None
            return
        assert got is not None
        assert_same_assignment(got.assignment, expected.assignment)
        assert got.cost == expected.cost
        assert got.criterion == expected.criterion
        assert got.improved == expected.improved


class TestExchangeRounding:
    """Exchanges whose delta passes ``-1e-9`` only through rounding.

    Items 0 and 1 sit in partitions 0 and 1.  The rewrite screens
    exchanges on the rows of items that gain by moving, in either item
    order; these two deltas are where that screen needs its slack.
    """

    @staticmethod
    def assert_same_exchange(cost):
        sizes, capacities = np.ones(2), np.ones(2)
        got, expected = np.array([0, 1]), np.array([0, 1])
        assert gap_oracle._exchange_improve(expected, cost, sizes, capacities, 4)
        assert gap._exchange_improve(got, cost, sizes, capacities, 4)
        assert_same_assignment(got, expected)

    def test_moves_that_gain_nothing(self):
        # Neither move changes the cost, yet ((A + B) - A) - B < -1e-9.
        self.assert_same_exchange(np.array([[1e8, 0.1], [1e8, 0.1]]))

    def test_delta_depends_on_item_order(self):
        # Only item 1 gains by moving; ((X - c00) - c11) < -1e-9 while
        # ((X - c11) - c00) == 0, with X = c10 + c01.
        self.assert_same_exchange(
            np.array(
                [
                    [281216574.56226563, 0.43262725405182645],
                    [281216574.56226915, 0.43263079080478717],
                ]
            )
        )
