"""Builders for the standard fixed partition topologies.

The paper's experiments use 16 partitions on a 4x4 grid with Manhattan
cost and delay (``B = D``); :func:`grid_topology` builds exactly that
shape.  The other builders cover common MCM/FPGA arrangements used by
the examples and ablations.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.topology.distance import (
    euclidean_distance_matrix,
    hop_distance_matrix,
    manhattan_distance_matrix,
    uniform_cost_matrix,
)
from repro.topology.partition import Partition, Topology


def grid_topology(
    rows: int,
    cols: int,
    capacity: float | Sequence[float],
    *,
    metric: str = "manhattan",
    pitch: float = 1.0,
    name: str | None = None,
) -> Topology:
    """A ``rows x cols`` grid of partitions, adjacent slots ``pitch`` apart.

    Parameters
    ----------
    capacity:
        Either one capacity shared by every slot, or a sequence of
        ``rows * cols`` per-slot capacities in row-major order.
    metric:
        ``"manhattan"`` (the paper's choice), ``"euclidean"``,
        ``"quadratic"`` (squared Manhattan - the paper's "quadratic wire
        length" metric), or ``"uniform"`` (wire-crossing counting).
    """
    if rows <= 0 or cols <= 0:
        raise ValueError(f"grid dimensions must be positive, got {rows}x{cols}")
    count = rows * cols
    capacities = _expand_capacity(capacity, count)
    positions = [
        (float(c) * pitch, float(r) * pitch) for r in range(rows) for c in range(cols)
    ]
    partitions = [
        Partition(name=f"p{r}_{c}", capacity=capacities[r * cols + c], position=positions[r * cols + c])
        for r in range(rows)
        for c in range(cols)
    ]
    cost = _metric_matrix(metric, positions)
    return Topology(partitions, cost, name=name or f"grid{rows}x{cols}")


def slack_capacity(circuit, partitions: int, slack: float) -> float:
    """One partition capacity with ``slack`` headroom over balanced load.

    Never below the largest component's size with the same headroom, so
    every component fits somewhere.
    """
    balanced = circuit.total_size() / partitions
    return max(
        balanced * (1.0 + slack),
        float(circuit.sizes().max()) * (1.0 + slack),
    )


def linear_topology(
    count: int,
    capacity: float | Sequence[float],
    *,
    metric: str = "manhattan",
    pitch: float = 1.0,
    name: str | None = None,
) -> Topology:
    """``count`` partitions in a row (a 1 x ``count`` grid)."""
    return grid_topology(1, count, capacity, metric=metric, pitch=pitch, name=name or f"linear{count}")


def ring_topology(
    count: int,
    capacity: float | Sequence[float],
    *,
    name: str | None = None,
) -> Topology:
    """``count`` partitions on a ring; cost/delay are hop distances."""
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    capacities = _expand_capacity(capacity, count)
    angle = 2.0 * np.pi / count
    partitions = [
        Partition(
            name=f"p{i}",
            capacity=capacities[i],
            position=(float(np.cos(i * angle)), float(np.sin(i * angle))),
        )
        for i in range(count)
    ]
    edges = [(i, (i + 1) % count) for i in range(count)] if count > 1 else []
    cost = hop_distance_matrix(count, edges)
    return Topology(partitions, cost, name=name or f"ring{count}")


def star_topology(
    leaves: int,
    hub_capacity: float,
    leaf_capacity: float,
    *,
    name: str | None = None,
) -> Topology:
    """A hub partition (index 0) plus ``leaves`` leaf partitions.

    Hop metric: hub<->leaf is 1, leaf<->leaf is 2.  Models a backplane /
    switch-centred module arrangement.
    """
    if leaves <= 0:
        raise ValueError(f"leaves must be positive, got {leaves}")
    partitions = [Partition(name="hub", capacity=hub_capacity, position=(0.0, 0.0))]
    angle = 2.0 * np.pi / leaves
    for i in range(leaves):
        partitions.append(
            Partition(
                name=f"leaf{i}",
                capacity=leaf_capacity,
                position=(float(np.cos(i * angle)), float(np.sin(i * angle))),
            )
        )
    edges = [(0, i + 1) for i in range(leaves)]
    cost = hop_distance_matrix(leaves + 1, edges)
    return Topology(partitions, cost, name=name or f"star{leaves}")


def _expand_capacity(capacity, count: int) -> list[float]:
    if np.isscalar(capacity):
        value = float(capacity)
        if value < 0:
            raise ValueError(f"capacity must be >= 0, got {value}")
        return [value] * count
    caps = [float(c) for c in capacity]
    if len(caps) != count:
        raise ValueError(f"expected {count} capacities, got {len(caps)}")
    return caps


def _metric_matrix(metric: str, positions) -> np.ndarray:
    if metric == "manhattan":
        return manhattan_distance_matrix(positions)
    if metric == "euclidean":
        return euclidean_distance_matrix(positions)
    if metric == "quadratic":
        return manhattan_distance_matrix(positions) ** 2
    if metric == "uniform":
        return uniform_cost_matrix(len(positions))
    raise ValueError(
        f"unknown metric {metric!r}; use manhattan, euclidean, quadratic, or uniform"
    )
