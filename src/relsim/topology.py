"""Random geometric (unit-disk) topology generation.

Nodes are dropped uniformly on a square; two nodes are adjacent iff their
Euclidean distance is at most the radio range.  Adjacency is symmetric and
self-edge free by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

from .errors import ConfigError, TopologyError


@dataclass(frozen=True)
class Topology:
    positions: tuple[tuple[float, float], ...]
    neighbors: tuple[tuple[int, ...], ...]  # sorted neighbor ids per node
    connected: bool

    @property
    def node_count(self) -> int:
        return len(self.positions)

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edge list with u < v, in deterministic order."""
        return [
            (u, v)
            for u in range(len(self.neighbors))
            for v in self.neighbors[u]
            if u < v
        ]


def _is_connected(neighbors: tuple[tuple[int, ...], ...]) -> bool:
    n = len(neighbors)
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for v in neighbors[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == n


def topology_from_positions(
    positions: list[tuple[float, float]], radio_range: float
) -> Topology:
    """Build the unit-disk adjacency for explicitly placed nodes."""
    if len(positions) < 2:
        raise ConfigError("a topology needs at least two nodes")
    if not radio_range > 0:
        raise ConfigError("radio_range must be positive")
    coords = [c for p in positions for c in p]
    if not all(map(math.isfinite, coords)):
        raise ConfigError("positions must be finite")
    # Bucket nodes into square cells, so that a neighbor lies in the same
    # cell or one of the eight around it.  A side of exactly radio_range
    # would not do: math.dist rounds, so two points can test exactly
    # radio_range apart and yet land two cells apart, as 0.9999999999999999
    # and 2.0 do at range 1.  The side is therefore wider than radio_range
    # by more than the rounding of a difference and of each coordinate's
    # quotient, which both scale with the largest coordinate.
    side = radio_range + (radio_range + max(map(abs, coords))) * 2.0**-50
    cells: dict[tuple[int, int], list[int]] = {}
    for i, (x, y) in enumerate(positions):
        cells.setdefault((math.floor(x / side), math.floor(y / side)), []).append(i)
    nbrs: list[list[int]] = [[] for _ in positions]
    for (cx, cy), members in cells.items():
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for v in cells.get((cx + dx, cy + dy), ()):
                    pv = positions[v]
                    for u in members:
                        if u < v and math.dist(positions[u], pv) <= radio_range:
                            nbrs[u].append(v)
                            nbrs[v].append(u)
    frozen = tuple(tuple(sorted(ns)) for ns in nbrs)
    return Topology(
        positions=tuple(positions),
        neighbors=frozen,
        connected=_is_connected(frozen),
    )


def build_topology(
    node_count: int, area_side: float, radio_range: float, rng: Random
) -> Topology:
    """Drop ``node_count`` nodes uniformly on the square and link by range.

    The returned topology reports its connectivity status; callers that
    need a connected graph should use :func:`build_connected_topology`.
    """
    if node_count < 2:
        raise ConfigError("node_count must be at least 2")
    if area_side <= 0:
        raise ConfigError("area_side must be positive")
    positions = [
        (rng.uniform(0.0, area_side), rng.uniform(0.0, area_side))
        for _ in range(node_count)
    ]
    return topology_from_positions(positions, radio_range)


def build_connected_topology(
    node_count: int,
    area_side: float,
    radio_range: float,
    rng: Random,
    max_attempts: int = 100,
) -> Topology:
    """Resample until connected, failing loudly after ``max_attempts``."""
    for _ in range(max_attempts):
        topo = build_topology(node_count, area_side, radio_range, rng)
        if topo.connected:
            return topo
    raise TopologyError(
        f"no connected topology after {max_attempts} attempts "
        f"(nodes={node_count}, area={area_side}, range={radio_range})"
    )


def bfs_hop_counts(topology: Topology, source: int) -> list[int]:
    """Shortest hop count from ``source`` to every node (-1 if unreachable)."""
    dist = [-1] * topology.node_count
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in topology.neighbors[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist
