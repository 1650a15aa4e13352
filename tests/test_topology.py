import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relsim.errors import ConfigError, TopologyError
from relsim.topology import (
    bfs_hop_counts,
    build_connected_topology,
    build_topology,
    topology_from_positions,
)


def test_boundary_distance_is_adjacent():
    topo = topology_from_positions([(0.0, 0.0), (0.0, 100.0)], 100.0)
    assert 1 in topo.neighbors[0]
    assert 0 in topo.neighbors[1]


def test_distance_beyond_range_is_not_adjacent():
    topo = topology_from_positions([(0.0, 0.0), (0.0, 101.0)], 100.0)
    assert 1 not in topo.neighbors[0]
    assert not topo.connected


def test_no_self_edges_and_symmetry():
    rng = random.Random(3)
    topo = build_topology(20, 400.0, 150.0, rng)
    for u in range(20):
        assert u not in topo.neighbors[u]
        for v in topo.neighbors[u]:
            assert u in topo.neighbors[v]


def test_seeded_layout_matches_distance_oracle():
    """Adjacency must equal an independently recomputed pairwise check."""
    rng = random.Random(99)
    topo = build_topology(25, 600.0, 200.0, rng)
    for u in range(25):
        for v in range(25):
            if u == v:
                continue
            du = topo.positions[u]
            dv = topo.positions[v]
            expected = math.sqrt((du[0] - dv[0]) ** 2 + (du[1] - dv[1]) ** 2) <= 200.0
            assert (v in topo.neighbors[u]) == expected


def test_positions_fall_inside_area():
    rng = random.Random(5)
    topo = build_topology(40, 321.0, 100.0, rng)
    for x, y in topo.positions:
        assert 0.0 <= x <= 321.0
        assert 0.0 <= y <= 321.0


@pytest.mark.parametrize("count", [0, 1])
def test_too_few_nodes_rejected(count):
    with pytest.raises(ConfigError):
        build_topology(count, 100.0, 50.0, random.Random(1))


def test_connected_builder_retries_until_connected():
    rng = random.Random(17)
    topo = build_connected_topology(15, 400.0, 160.0, rng)
    assert topo.connected


def test_connected_builder_gives_up():
    # 30 nodes in a huge area with a tiny range cannot connect
    rng = random.Random(2)
    with pytest.raises(TopologyError):
        build_connected_topology(30, 100_000.0, 10.0, rng, max_attempts=10)


def test_bfs_hop_counts_on_line():
    topo = topology_from_positions([(i * 100.0, 0.0) for i in range(5)], 100.0)
    assert bfs_hop_counts(topo, 0) == [0, 1, 2, 3, 4]
    assert bfs_hop_counts(topo, 2) == [2, 1, 0, 1, 2]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_positions_and_range_rejected(bad):
    with pytest.raises(ConfigError, match="positions must be finite"):
        topology_from_positions([(0.0, 0.0), (bad, 0.0)], 100.0)
    with pytest.raises(ConfigError, match="positions must be finite"):
        topology_from_positions([(0.0, bad), (0.0, 0.0)], 100.0)
    if bad != math.inf:
        with pytest.raises(ConfigError, match="radio_range must be positive"):
            topology_from_positions([(0.0, 0.0), (1.0, 0.0)], bad)


def _quadratic_neighbors(positions, radio_range):
    """The all-pairs unit-disk adjacency the cell grid must reproduce."""
    nbrs = [[] for _ in positions]
    for u in range(len(positions)):
        for v in range(u + 1, len(positions)):
            if math.dist(positions[u], positions[v]) <= radio_range:
                nbrs[u].append(v)
                nbrs[v].append(u)
    return tuple(tuple(sorted(ns)) for ns in nbrs)


@st.composite
def _layouts(draw):
    """Points in any quadrant, on cell boundaries (multiples of the range,
    give or take an ulp), and in pairs exactly one range apart."""
    radio_range = draw(st.sampled_from([1.0, 3.0, 0.1, 250.0]) | st.floats(0.01, 1000.0))
    coord = st.floats(-5 * radio_range, 5 * radio_range, allow_nan=False) | st.builds(
        lambda k, ulps: _nudge(k * radio_range, ulps),
        st.integers(-6, 6), st.integers(-2, 2),
    )
    positions = []
    for x, y, mate in draw(st.lists(
        st.tuples(coord, coord, st.sampled_from([None, (1, 0), (0, 1), (-1, 0), (0, -1)])),
        min_size=1, max_size=25,
    )):
        positions.append((x, y))
        if mate is not None:
            positions.append((x + mate[0] * radio_range, y + mate[1] * radio_range))
    if len(positions) < 2:
        positions.append((positions[0][0] + radio_range, positions[0][1]))
    return positions, radio_range


def _nudge(value, ulps):
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


@given(_layouts())
@settings(max_examples=300, deadline=None)
def test_cell_grid_matches_all_pairs_reference(layout):
    positions, radio_range = layout
    topo = topology_from_positions(positions, radio_range)
    assert topo.neighbors == _quadratic_neighbors(positions, radio_range)


def test_points_one_range_apart_by_rounding_stay_adjacent():
    """``math.dist`` rounds 2.0 - 0.9999999999999999 to exactly 1.0, yet
    the two points sit in unit cells 0 and 2."""
    positions = [(0.9999999999999999, 0.0), (2.0, 0.0)]
    assert math.dist(*positions) == 1.0
    assert 1 in topology_from_positions(positions, 1.0).neighbors[0]


@pytest.mark.parametrize("nodes, side", [(2000, 6324.6), (400, 2828.0), (50, 1000.0), (30, 800.0)])
def test_cell_grid_matches_all_pairs_reference_on_uniform_layouts(nodes, side):
    rng = random.Random(nodes)
    positions = [(rng.uniform(0.0, side), rng.uniform(0.0, side)) for _ in range(nodes)]
    topo = topology_from_positions(positions, 250.0)
    assert topo.neighbors == _quadratic_neighbors(positions, 250.0)
