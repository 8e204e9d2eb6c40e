"""The batched move-evaluation path against its reference oracle.

``DeltaCache`` maintains its state with whole-array kernels; the
per-component ``move_deltas(j)`` / ``_timing_block_row(j)`` are kept as
the oracle those kernels (and ``audit()``) are checked against.
"""

from __future__ import annotations

import numpy as np

from repro.core.assignment import Assignment
from repro.core.problem import PartitioningProblem
from repro.engine.delta import DeltaCache
from repro.netlist.circuit import Circuit
from repro.timing.constraints import TimingConstraints
from repro.topology.grid import grid_topology


def small_problem(with_timing=True):
    circuit = Circuit("kernel-test")
    for j in range(6):
        circuit.add_component(f"u{j}", size=1.0)
    for j1, j2, w in [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 3.0), (3, 4, 1.0), (4, 5, 2.0), (0, 5, 1.0)]:
        circuit.add_wire(j1, j2, w)
    topo = grid_topology(1, 3, capacity=6.0)
    timing = None
    if with_timing:
        timing = TimingConstraints(6)
        timing.add(0, 3, 1.5)
        timing.add(2, 5, 1.0)
    return PartitioningProblem(circuit, topo, timing=timing)


def initial(problem):
    part = np.arange(problem.num_components) % problem.num_partitions
    return Assignment(part, problem.num_partitions)


def reference_scan(cache):
    """The full ``(N, M)`` move-delta matrix from the per-component oracle."""
    return np.array([cache.move_deltas(j) for j in range(cache.n)])


class TestDeltaCacheKernel:
    def test_all_move_deltas_matches_reference(self):
        cache = DeltaCache(small_problem(), initial(small_problem()))
        scan = cache.all_move_deltas()
        assert np.allclose(scan, reference_scan(cache), atol=1e-8)
        assert np.allclose(scan, cache.delta, atol=1e-8)

    def test_replay_keeps_state_and_stats_identical(self):
        problem = small_problem()
        cache = DeltaCache(problem, initial(problem))
        rng = np.random.default_rng(7)
        moved = 0
        for _ in range(12):
            j = int(rng.integers(0, problem.num_components))
            i = int(rng.integers(0, problem.num_partitions))
            expected = float(cache.move_deltas(j)[i])
            moved += i != int(cache.part[j])
            assert abs(cache.apply_move(j, i) - expected) < 1e-8
            cache.audit()
        stats = cache.stats.as_dict()
        assert stats["moves"] == moved
        assert stats["full_rebuilds"] == 1
        assert stats["row_refreshes"] >= moved

    def test_best_move_identical_across_kernels(self):
        problem = small_problem()
        cache = DeltaCache(problem, initial(problem))
        locked = np.zeros(problem.num_components, dtype=bool)
        for _ in range(3):
            move = cache.best_move(locked)
            mask = cache.feasible_move_mask(locked)
            if move is None:
                assert not mask.any()
                break
            scores = np.where(mask, reference_scan(cache), np.inf)
            j, i, delta = move
            assert (j, i) == divmod(int(np.argmin(scores)), problem.num_partitions)
            assert abs(delta - scores[j, i]) < 1e-8
            cache.apply_move(j, i)
            cache.audit()
            locked[j] = True
