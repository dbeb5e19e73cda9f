"""Canonical ALT-A* correctness: distances, canonical paths, edge cases.

Point-to-point routes run unidirectional A* under the ``max(euclidean,
ALT)`` heuristic (:func:`combined_heuristic`).  The repository's identity
gates rest on that search being a drop-in for Dijkstra — not merely "a
shortest path" but the *same* path (canonical min-id tie-break) with the
*same* float distance.  These tests pin both, on structured grids and on
randomly generated networks including disconnected pairs and zero-length
edges.  (The module name dates from the retired bidirectional search,
whose cases it keeps.)
"""

import math
import random

import numpy as np
import pytest

from repro.geo.point import Point
from repro.roadnet.generators import GridCityConfig, grid_city, manhattan_line
from repro.roadnet.network import RoadNetwork, RoadNode, RoadSegment
from repro.roadnet.shortest_path import (
    LandmarkIndex,
    SearchStats,
    astar,
    combined_heuristic,
    dijkstra,
)


def alt_astar(network, source, target, landmarks=None, stats=None):
    """A* under ``max(euclidean, ALT)``, as the routing engine runs it."""
    return astar(
        network,
        source,
        target,
        heuristic=combined_heuristic(network, target, landmarks),
        stats=stats,
    )


def random_network(seed: int, n: int = 30, extra_edges: int = 50) -> RoadNetwork:
    """A random directed network: scattered nodes, random directed edges.

    Deliberately *not* strongly connected — plenty of unreachable pairs —
    and seeded so failures reproduce.
    """
    rng = random.Random(seed)
    nodes = [
        RoadNode(i, Point(rng.uniform(0, 5_000), rng.uniform(0, 5_000)))
        for i in range(n)
    ]
    net = RoadNetwork()
    for node in nodes:
        net.add_node(node)
    sid = 0
    seen = set()
    for __ in range(extra_edges):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b or (a, b) in seen:
            continue
        seen.add((a, b))
        net.add_segment(
            RoadSegment.build(
                sid, a, b, [nodes[a].point, nodes[b].point], speed_limit=13.9
            )
        )
        sid += 1
    return net


@pytest.fixture(scope="module")
def city():
    return grid_city(
        GridCityConfig(nx=8, ny=8, drop_fraction=0.1, one_way_fraction=0.15),
        np.random.default_rng(11),
    )


@pytest.fixture(scope="module")
def city_landmarks(city):
    return LandmarkIndex.build(city, 6)


class TestDistanceIdentity:
    def test_matches_dijkstra_on_city(self, city, city_landmarks):
        rng = np.random.default_rng(5)
        nodes = [n.node_id for n in city.nodes()]
        for __ in range(60):
            a, b = (int(x) for x in rng.choice(nodes, size=2))
            d_uni, p_uni = dijkstra(city, a, b)
            d_plain, p_plain = alt_astar(city, a, b)
            d_alt, p_alt = alt_astar(city, a, b, landmarks=city_landmarks)
            assert d_plain == d_uni
            assert d_alt == d_uni
            assert p_plain == p_uni
            assert p_alt == p_uni

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dijkstra_on_random_networks(self, seed):
        net = random_network(seed)
        landmarks = LandmarkIndex.build(net, 4)
        node_ids = [n.node_id for n in net.nodes()]
        rng = random.Random(seed + 100)
        disconnected = 0
        for __ in range(40):
            a, b = rng.choice(node_ids), rng.choice(node_ids)
            d_uni, p_uni = dijkstra(net, a, b)
            d_alt, p_alt = alt_astar(net, a, b, landmarks=landmarks)
            if math.isinf(d_uni):
                disconnected += 1
                assert math.isinf(d_alt)
                assert p_alt == []
            else:
                assert d_alt == d_uni
                assert p_alt == p_uni
        # The generator must actually have produced unreachable pairs,
        # otherwise this test silently stopped covering them.
        assert disconnected > 0

    def test_source_equals_target(self, city, city_landmarks):
        assert alt_astar(city, 3, 3, landmarks=city_landmarks) == (0.0, [3])

    def test_unreachable_isolated_node(self):
        net = manhattan_line(4)
        net.add_node(RoadNode(99, Point(0, 9_999)))
        d, path = alt_astar(net, 0, 99, landmarks=LandmarkIndex.build(net, 2))
        assert math.isinf(d)
        assert path == []


class TestCanonicalTieBreak:
    def test_identical_node_paths_on_tie_heavy_grid(self):
        """A jitter-free grid is packed with equal-length alternatives; ALT-A*
        must still return Dijkstra's canonical (min-id predecessor) path,
        node for node."""
        net = grid_city(
            GridCityConfig(nx=6, ny=6, jitter=0.0, drop_fraction=0.0),
            np.random.default_rng(0),
        )
        landmarks = LandmarkIndex.build(net, 4)
        nodes = sorted(n.node_id for n in net.nodes())
        for a in nodes[::5]:
            for b in nodes[::7]:
                d_uni, p_uni = dijkstra(net, a, b)
                d_euclid, p_euclid = astar(net, a, b)
                d_alt, p_alt = alt_astar(net, a, b, landmarks=landmarks)
                assert p_euclid == p_uni
                assert p_alt == p_uni
                assert d_alt == d_uni == d_euclid

    def test_zero_length_edges(self):
        """Coincident nodes joined by zero-length segments create zero-cost
        cycles; the search must terminate and stay canonical."""
        p0, p1 = Point(0, 0), Point(100, 0)
        net = RoadNetwork()
        net.add_node(RoadNode(0, p0))
        net.add_node(RoadNode(1, p0))  # coincident with node 0
        net.add_node(RoadNode(2, p1))
        net.add_segment(RoadSegment.build(0, 0, 1, [p0, p0], speed_limit=10.0))
        net.add_segment(RoadSegment.build(1, 1, 0, [p0, p0], speed_limit=10.0))
        net.add_segment(RoadSegment.build(2, 1, 2, [p0, p1], speed_limit=10.0))
        net.add_segment(RoadSegment.build(3, 2, 1, [p1, p0], speed_limit=10.0))
        landmarks = LandmarkIndex.build(net, 2)
        for a in (0, 1, 2):
            for b in (0, 1, 2):
                d_uni, p_uni = dijkstra(net, a, b)
                d_alt, p_alt = alt_astar(net, a, b, landmarks=landmarks)
                assert d_alt == d_uni
                assert p_alt == p_uni

    def test_parallel_segments_keep_cheapest(self):
        """Parallel edges of different lengths: the path must thread the
        cheapest, exactly as Dijkstra does."""
        p0, p1 = Point(0, 0), Point(100, 0)
        detour = Point(50, 80)
        net = RoadNetwork()
        net.add_node(RoadNode(0, p0))
        net.add_node(RoadNode(1, p1))
        net.add_segment(RoadSegment.build(0, 0, 1, [p0, detour, p1], speed_limit=10.0))
        net.add_segment(RoadSegment.build(1, 0, 1, [p0, p1], speed_limit=10.0))
        d_uni, p_uni = dijkstra(net, 0, 1)
        d_alt, p_alt = alt_astar(net, 0, 1, landmarks=LandmarkIndex.build(net, 2))
        assert d_alt == d_uni == 100.0
        assert p_alt == p_uni == [0, 1]


class TestStats:
    def test_settles_fewer_nodes_than_dijkstra(self, city, city_landmarks):
        """The point of the landmarks: ALT potentials must search a smaller
        volume than plain Dijkstra on long pairs."""
        nodes = sorted(n.node_id for n in city.nodes())
        pairs = [(nodes[0], nodes[-1]), (nodes[2], nodes[-3]), (nodes[5], nodes[-1])]
        s_uni, s_alt = SearchStats(), SearchStats()
        for a, b in pairs:
            dijkstra(city, a, b, stats=s_uni)
            alt_astar(city, a, b, landmarks=city_landmarks, stats=s_alt)
        assert s_alt.settled < s_uni.settled
