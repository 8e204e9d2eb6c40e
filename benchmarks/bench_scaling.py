#!/usr/bin/env python
"""Scaling benchmark: the batched move scan against its scalar oracle.

Sweeps synthetic clustered workloads over a grid of problem sizes
(``N`` components x ``K`` partitions) and, for every cell, replays the
same deterministic move sequence twice through
:class:`repro.engine.delta.DeltaCache`:

* **batched** - each full candidate scan is one
  :meth:`all_move_deltas` call (whole-array sparse products), the
  production path,
* **scalar** - each scan is a loop over the per-component
  :meth:`move_deltas` reference oracle.

Both replays apply their moves through the same :meth:`apply_move`.
Each replay step performs a full candidate scan, records the selected
candidate (flat argmin - the deterministic tie-break shared with
:meth:`DeltaCache.best_move`), then applies the next scripted move.
The two scans must select identical candidates with matching scan
checksums, and both finished caches must pass :meth:`audit`;
divergence aborts the benchmark.

The output is a ``bench-scaling-v1`` JSON document (canonically named
``BENCH_scaling.json``) that ``scripts/check_bench.py`` can gate
against the committed ``benchmarks/baselines/scaling.json``: counters
exactly, wall times within a wide ratio, and the batched/scalar
speedup against each cell's ``min_speedup`` floor.

Usage::

    PYTHONPATH=src python benchmarks/bench_scaling.py --out BENCH_scaling.json
    python scripts/check_bench.py BENCH_scaling.json \\
        --baseline benchmarks/baselines/scaling.json
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.engine.delta import DeltaCache
from repro.core.problem import PartitioningProblem
from repro.eval.workloads import cluster_reference
from repro.netlist.generate import ClusteredCircuitSpec, generate_clustered_circuit
from repro.timing.constraints import synthesize_feasible_constraints
from repro.topology.grid import grid_topology

BENCH_SCALING_FORMAT = "bench-scaling-v1"
"""Schema tag; scripts/check_bench.py dispatches on it."""

DEFAULT_SIZES = (64, 256, 1024)
DEFAULT_PARTITIONS = (2, 8)
DEFAULT_MOVES = 32
SEED = 29
WIRE_FACTOR = 3
CAPACITY_SLACK = 0.2


def build_cell_problem(n: int, k: int, seed: int) -> Tuple[PartitioningProblem, object]:
    """One synthetic workload cell: clustered circuit, K-slot grid, timing."""
    spec = ClusteredCircuitSpec(
        name=f"scaling-n{n}-k{k}",
        num_components=n,
        num_wires=WIRE_FACTOR * n,
        intra_cluster_probability=0.75,
        size_range=(1.0, 100.0),
    )
    circuit = generate_clustered_circuit(spec, seed)
    rows = 1 if k <= 4 else 2
    capacity = circuit.total_size() * (1.0 + CAPACITY_SLACK) / k
    capacity = max(capacity, float(circuit.sizes().max()) * (1.0 + CAPACITY_SLACK))
    topology = grid_topology(rows, k // rows, capacity=capacity, name=f"grid-{k}")
    reference = cluster_reference(circuit, topology)
    timing = synthesize_feasible_constraints(
        circuit,
        topology.delay_matrix,
        reference.part,
        count=max(1, n // 4),
        seed=seed + 1,
    )
    problem = PartitioningProblem(
        circuit, topology, timing=timing, name=spec.name
    )
    return problem, reference


def move_sequence(problem, initial, moves: int, rng) -> List[Tuple[int, int]]:
    """A deterministic, capacity-respecting random move sequence."""
    cache = DeltaCache(problem, initial)
    sequence: List[Tuple[int, int]] = []
    while len(sequence) < moves:
        j = int(rng.integers(0, problem.num_components))
        i = int(rng.integers(0, problem.num_partitions))
        if i == int(cache.part[j]) or not cache.capacity.move_fits(j, i):
            continue
        cache.apply_move(j, i)
        sequence.append((j, i))
    return sequence


def scalar_scan(cache: DeltaCache) -> np.ndarray:
    """The full candidate scan as a loop over the reference oracle."""
    out = np.empty((cache.n, cache.m))
    for j in range(cache.n):
        out[j, :] = cache.move_deltas(j)
    return out


SCANS: Dict[str, Callable[[DeltaCache], np.ndarray]] = {
    "batched": DeltaCache.all_move_deltas,
    "scalar": scalar_scan,
}
"""The two full-scan implementations the sweep times, by output key."""


def run_kernel(problem, initial, moves, scan: Callable[[DeltaCache], np.ndarray]):
    """Replay ``moves`` with a full candidate scan before each move.

    Returns ``(elapsed_seconds, picks, scan_sums, cache)``: the argmin
    candidate chain, a per-scan checksum, and the finished cache.
    """
    cache = DeltaCache(problem, initial)
    picks: List[int] = []
    sums: List[float] = []
    t0 = time.perf_counter()
    for j, i in moves:
        values = scan(cache)
        picks.append(int(np.argmin(values)))
        sums.append(float(values.sum()))
        cache.apply_move(j, i)
    elapsed = time.perf_counter() - t0
    return elapsed, picks, sums, cache


def assert_equivalent(results: Dict[str, tuple], cell: str) -> None:
    """Both scans select the same candidates; both caches pass audit()."""
    (_, picks_b, sums_b, cache_b) = results["batched"]
    (_, picks_s, sums_s, cache_s) = results["scalar"]
    if picks_b != picks_s:
        raise AssertionError(f"{cell}: scans selected different candidates")
    if not np.allclose(sums_b, sums_s, rtol=0, atol=1e-8):
        raise AssertionError(f"{cell}: scan checksums diverged")
    cache_b.audit()
    cache_s.audit()


def run_cell(n: int, k: int, moves: int) -> Dict[str, object]:
    """Benchmark one ``(N, K)`` cell through both scans."""
    problem, reference = build_cell_problem(n, k, seed=SEED)
    sequence = move_sequence(
        problem, reference, moves, np.random.default_rng(SEED + n + k)
    )
    results = {
        kernel: run_kernel(problem, reference, sequence, scan)
        for kernel, scan in SCANS.items()
    }
    assert_equivalent(results, f"n={n} k={k}")
    kernels = {
        kernel: {
            "seconds": elapsed,
            "counters": {
                f"delta.{name}": float(value)
                for name, value in cache.stats.as_dict().items()
            },
        }
        for kernel, (elapsed, _, _, cache) in results.items()
    }
    batched_s = kernels["batched"]["seconds"]
    scalar_s = kernels["scalar"]["seconds"]
    return {
        "n": n,
        "k": k,
        "moves": len(sequence),
        "kernels": kernels,
        "speedup": scalar_s / batched_s if batched_s > 0 else float("inf"),
    }


def run_sweep(
    sizes: Sequence[int], partitions: Sequence[int], moves: int
) -> Dict[str, object]:
    cells = []
    for n in sizes:
        for k in partitions:
            cell = run_cell(n, k, moves)
            cells.append(cell)
            print(
                f"# n={n} k={k}: batched "
                f"{cell['kernels']['batched']['seconds']:.4f}s, scalar "
                f"{cell['kernels']['scalar']['seconds']:.4f}s "
                f"({cell['speedup']:.1f}x)"
            )
    return {
        "format": BENCH_SCALING_FORMAT,
        "sizes": list(sizes),
        "partitions": list(partitions),
        "moves": moves,
        "cells": cells,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Batched move scan vs its scalar oracle: scaling sweep."
    )
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES),
        metavar="N", help=f"component counts (default {list(DEFAULT_SIZES)})",
    )
    parser.add_argument(
        "--partitions", type=int, nargs="+", default=list(DEFAULT_PARTITIONS),
        metavar="K", help=f"partition counts (default {list(DEFAULT_PARTITIONS)})",
    )
    parser.add_argument(
        "--moves", type=int, default=DEFAULT_MOVES, metavar="M",
        help=f"scan+apply steps per cell (default {DEFAULT_MOVES})",
    )
    parser.add_argument(
        "--out", type=Path, default=None, metavar="PATH",
        help="result path (default: print to stdout); the canonical "
        "artifact name is BENCH_scaling.json",
    )
    args = parser.parse_args(argv)
    if args.moves < 1:
        parser.error("--moves must be >= 1")
    for value in args.sizes + args.partitions:
        if value < 2:
            parser.error("--sizes and --partitions values must be >= 2")

    payload = run_sweep(args.sizes, args.partitions, args.moves)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out is not None:
        args.out.write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
