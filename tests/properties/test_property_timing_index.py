"""Property-based tests: ``TimingIndex`` queries match per-constraint loops.

On random constraint sets over random asymmetric delay matrices — with
pairs constrained in one or both directions —

* ``conflict_rows(part)`` equals the per-row ``conflict_row(part, j)``
  and a brute-force count over ``constraints.items()``,
* ``restrict_unplaced`` narrows the same masks, and reports the same
  dead end, as the per-constraint loop the GAP construction used to run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import TimingIndex
from repro.timing.constraints import TimingConstraints


@st.composite
def indexed_constraints(draw):
    """``(constraints, delay, index)`` with some pairs bound both ways."""
    n = draw(st.integers(2, 8))
    m = draw(st.sampled_from([2, 3, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    delay = rng.uniform(0.0, 4.0, (m, m))
    np.fill_diagonal(delay, 0.0)
    constraints = TimingConstraints(n)
    for _ in range(draw(st.integers(0, 10))):
        j1, j2 = (int(v) for v in rng.choice(n, 2, replace=False))
        constraints.add(
            j1, j2, float(rng.uniform(0.0, 4.5)), symmetric=draw(st.booleans())
        )
    return constraints, delay, TimingIndex(constraints, delay)


def brute_force_rows(constraints, delay, part):
    block = np.zeros((constraints.num_components, delay.shape[0]), dtype=int)
    for j1, j2, budget in constraints.items():
        block[j1] += delay[:, part[j2]] > budget
        block[j2] += delay[part[j1], :] > budget
    return block


def reference_restrict(constraints, delay, allowed, assignment, j, i):
    """The per-constraint loop, run to the end instead of exiting early."""
    touched = []
    for j1, j2, budget in constraints.items():
        if j1 == j and assignment[j2] < 0:
            allowed[j2] &= delay[i, :] <= budget
            touched.append(j2)
        if j2 == j and assignment[j1] < 0:
            allowed[j1] &= delay[:, i] <= budget
            touched.append(j1)
    return all(allowed[k].any() for k in touched)


class TestConflictRows:
    @settings(max_examples=60, deadline=None)
    @given(indexed_constraints(), st.integers(0, 2**31))
    def test_batched_equals_per_row_and_brute_force(self, case, seed):
        constraints, delay, index = case
        rng = np.random.default_rng(seed)
        part = rng.integers(0, delay.shape[0], size=constraints.num_components)
        block = index.conflict_rows(part)
        for j in range(constraints.num_components):
            assert np.array_equal(block[j], index.conflict_row(part, j))
        assert np.array_equal(block, brute_force_rows(constraints, delay, part))
        rows = rng.permutation(constraints.num_components)[: 1 + seed % 3]
        assert np.array_equal(index.conflict_rows(part, rows), block[rows])


class TestRestrictUnplaced:
    @settings(max_examples=60, deadline=None)
    @given(indexed_constraints(), st.integers(0, 2**31))
    def test_matches_per_constraint_loop(self, case, seed):
        constraints, delay, index = case
        n, m = constraints.num_components, delay.shape[0]
        rng = np.random.default_rng(seed)
        assignment = np.where(
            rng.random(n) < 0.5, rng.integers(0, m, size=n), -1
        )
        j, i = int(rng.integers(0, n)), int(rng.integers(0, m))
        assignment[j] = i
        allowed = rng.random((n, m)) < 0.8
        expected_allowed = allowed.copy()
        expected = reference_restrict(
            constraints, delay, expected_allowed, assignment, j, i
        )
        assert index.restrict_unplaced(allowed, assignment, j, i) == expected
        assert np.array_equal(allowed, expected_allowed)
