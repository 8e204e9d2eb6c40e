"""Partition-topology substrate.

Models the *partition side* of the paper's input:

* ``I`` - a set of ``M`` partitions (:class:`Partition`), each with a
  capacity ``c_i``,
* ``B`` - the ``M x M`` wire-routing cost matrix,
* ``D`` - the ``M x M`` routing-delay matrix (the paper stresses that no
  relationship between ``B`` and ``D`` is assumed; both are stored
  independently).

Builders for the common fixed topologies (grids with Manhattan metrics -
the paper's 16-partition 4x4 experiments - plus linear arrays, rings and
stars) live in :mod:`repro.topology.grid`, and distance-metric helpers in
:mod:`repro.topology.distance`.
"""

from repro.topology.distance import (
    euclidean_distance_matrix,
    hop_distance_matrix,
    manhattan_distance_matrix,
    uniform_cost_matrix,
)
from repro.topology.grid import (
    grid_topology,
    linear_topology,
    ring_topology,
    slack_capacity,
    star_topology,
)
from repro.topology.partition import Partition, Topology

__all__ = [
    "Partition",
    "Topology",
    "euclidean_distance_matrix",
    "grid_topology",
    "hop_distance_matrix",
    "linear_topology",
    "manhattan_distance_matrix",
    "ring_topology",
    "slack_capacity",
    "star_topology",
    "uniform_cost_matrix",
]
