"""Property-based tests: the batched kernel matches its reference oracle.

On random problems — with and without timing constraints, with and
without a linear cost term, across capacity regimes —

* ``DeltaCache.all_move_deltas()`` matches the per-component
  ``move_deltas(j)`` reference element-wise,
* a freshly built cache's ``delta`` / ``timing_block`` equal the full
  matrices rebuilt from ``move_deltas(j)`` / ``_timing_block_row(j)``,
* a random ``apply_move`` / ``apply_swap`` replay passes ``audit()``
  (which rebuilds the expected state from the same oracle) after every
  step, and again after ``reset``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import Assignment
from repro.engine.delta import DeltaCache

from tests.properties.test_property_delta import problems, random_assignment


class TestAllMoveDeltasMatchesScalarReference:
    @settings(max_examples=40, deadline=None)
    @given(problems(), st.integers(0, 2**31))
    def test_elementwise_against_move_deltas(self, problem, seed):
        """Every row of the batched matrix equals the scalar row."""
        rng = np.random.default_rng(seed)
        a = random_assignment(problem, rng)
        cache = DeltaCache(problem, a)
        batched = cache.all_move_deltas()
        assert batched.shape == (problem.num_components, problem.num_partitions)
        for j in range(problem.num_components):
            assert np.allclose(batched[j], cache.move_deltas(j), atol=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(problems(), st.integers(0, 2**31))
    def test_explicit_part_argument(self, problem, seed):
        """all_move_deltas(part) evaluates a hypothetical assignment."""
        rng = np.random.default_rng(seed)
        a = random_assignment(problem, rng)
        other = random_assignment(problem, rng)
        cache = DeltaCache(problem, a)
        hypothetical = cache.all_move_deltas(other.part)
        reference = DeltaCache(problem, other)
        assert np.allclose(hypothetical, reference.delta, atol=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(problems(), st.integers(0, 2**31))
    def test_scan_agrees_across_kernels(self, problem, seed):
        """Built state equals the scalar oracle's rows, timing exactly."""
        rng = np.random.default_rng(seed)
        cache = DeltaCache(problem, random_assignment(problem, rng))
        for j in range(problem.num_components):
            assert np.allclose(cache.delta[j], cache.move_deltas(j), atol=1e-8)
            assert np.array_equal(cache.timing_block[j], cache._timing_block_row(j))


class TestReplayEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(problems(), st.integers(0, 2**31), st.data())
    def test_random_replay_keeps_kernels_identical(self, problem, seed, data):
        """audit() after every step: maintained state equals the oracle's."""
        rng = np.random.default_rng(seed)
        cache = DeltaCache(problem, random_assignment(problem, rng))
        moves = data.draw(st.integers(1, 8))
        for _ in range(moves):
            if rng.random() < 0.25 and problem.num_components >= 2:
                j1, j2 = rng.choice(problem.num_components, 2, replace=False)
                cache.apply_swap(int(j1), int(j2))
            else:
                j = int(rng.integers(0, problem.num_components))
                i = int(rng.integers(0, problem.num_partitions))
                cache.apply_move(j, i)
            cache.audit()

    @settings(max_examples=30, deadline=None)
    @given(problems(), st.integers(0, 2**31), st.data())
    def test_reset_resynchronises_both_kernels(self, problem, seed, data):
        """reset() after a replay leaves the cache equal to the oracle."""
        rng = np.random.default_rng(seed)
        cache = DeltaCache(problem, random_assignment(problem, rng))
        moves = data.draw(st.integers(1, 4))
        for _ in range(moves):
            j = int(rng.integers(0, problem.num_components))
            i = int(rng.integers(0, problem.num_partitions))
            cache.apply_move(j, i)
        fresh = random_assignment(problem, rng)
        cache.reset(Assignment(fresh.part.copy(), problem.num_partitions))
        cache.audit()
        assert np.allclose(cache.delta, DeltaCache(problem, fresh).delta, atol=1e-8)
