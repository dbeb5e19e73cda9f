"""Unit and property tests for Yen's K-shortest paths."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.roadnet import ksp
from repro.roadnet.ksp import ShortestPathTrees, dijkstra_generic, yen_k_shortest_paths


def adj_from_dict(graph):
    return lambda n: iter(graph.get(n, []))


DIAMOND = {
    "s": [("a", 1.0), ("b", 2.0)],
    "a": [("t", 1.0), ("b", 0.5)],
    "b": [("t", 1.0)],
    "t": [],
}


class TestDijkstraGeneric:
    def test_trivial(self):
        assert dijkstra_generic(adj_from_dict(DIAMOND), "s", "s") == (0.0, ["s"])

    def test_shortest(self):
        cost, path = dijkstra_generic(adj_from_dict(DIAMOND), "s", "t")
        assert cost == 2.0
        assert path == ["s", "a", "t"]

    def test_unreachable(self):
        cost, path = dijkstra_generic(adj_from_dict({"s": []}), "s", "t")
        assert math.isinf(cost)
        assert path == []

    def test_removed_edge(self):
        cost, path = dijkstra_generic(
            adj_from_dict(DIAMOND), "s", "t", removed_edges={("s", "a")}
        )
        assert path == ["s", "b", "t"]

    def test_removed_node(self):
        cost, path = dijkstra_generic(
            adj_from_dict(DIAMOND), "s", "t", removed_nodes={"a"}
        )
        assert path == ["s", "b", "t"]

    def test_negative_weight_raises(self):
        bad = {"s": [("t", -1.0)], "t": []}
        with pytest.raises(ValueError):
            dijkstra_generic(adj_from_dict(bad), "s", "t")


class TestYen:
    def test_k_zero(self):
        assert yen_k_shortest_paths(adj_from_dict(DIAMOND), "s", "t", 0) == []

    def test_no_path(self):
        assert yen_k_shortest_paths(adj_from_dict({"s": []}), "s", "t", 3) == []

    def test_diamond_all_paths(self):
        got = yen_k_shortest_paths(adj_from_dict(DIAMOND), "s", "t", 5)
        assert [cost for cost, __ in got] == [2.0, 2.5, 3.0]
        assert got[0][1] == ["s", "a", "t"]
        assert got[1][1] == ["s", "a", "b", "t"]
        assert got[2][1] == ["s", "b", "t"]

    def test_costs_nondecreasing(self):
        got = yen_k_shortest_paths(adj_from_dict(DIAMOND), "s", "t", 5)
        costs = [c for c, __ in got]
        assert costs == sorted(costs)

    def test_paths_distinct_and_loopless(self):
        got = yen_k_shortest_paths(adj_from_dict(DIAMOND), "s", "t", 5)
        keys = {tuple(p) for __, p in got}
        assert len(keys) == len(got)
        for __, p in got:
            assert len(set(p)) == len(p)

    def test_grid_graph(self):
        # 3x3 lattice: number of monotone shortest paths from corner to
        # corner is C(4,2)=6, all of cost 4.
        graph = {}
        for x in range(3):
            for y in range(3):
                out = []
                if x < 2:
                    out.append(((x + 1, y), 1.0))
                if y < 2:
                    out.append(((x, y + 1), 1.0))
                graph[(x, y)] = out
        got = yen_k_shortest_paths(adj_from_dict(graph), (0, 0), (2, 2), 6)
        assert len(got) == 6
        assert all(cost == 4.0 for cost, __ in got)


@st.composite
def random_digraphs(draw):
    n = draw(st.integers(4, 8))
    edges = {}
    for u in range(n):
        out = []
        for v in range(n):
            if u == v:
                continue
            if draw(st.booleans()):
                w = draw(st.floats(0.1, 10.0))
                out.append((v, w))
        edges[u] = out
    return n, edges


def brute_force_k_paths(graph, s, t, k, max_len=8):
    """All simple paths up to max_len, scored and sorted."""

    def cost_of(path):
        total = 0.0
        for u, v in zip(path, path[1:]):
            w = min((w for n, w in graph[u] if n == v), default=math.inf)
            total += w
        return total

    results = []

    def dfs(node, path):
        if len(path) > max_len:
            return
        if node == t:
            results.append((cost_of(path), list(path)))
            return
        for v, __ in graph[node]:
            if v not in path:
                path.append(v)
                dfs(v, path)
                path.pop()

    dfs(s, [s])
    results.sort(key=lambda pair: (pair[0], pair[1]))
    return results[:k]


class TestYenDifferential:
    @settings(max_examples=30, deadline=None)
    @given(random_digraphs(), st.integers(1, 4))
    def test_costs_match_brute_force(self, graph_spec, k):
        n, graph = graph_spec
        got = yen_k_shortest_paths(adj_from_dict(graph), 0, n - 1, k)
        expected = brute_force_k_paths(graph, 0, n - 1, k)
        got_costs = [round(c, 9) for c, __ in got]
        expected_costs = [round(c, 9) for c, __ in expected]
        assert got_costs == expected_costs


@st.composite
def tied_digraphs(draw):
    """Small digraphs with integer weights 1–3, so equal-cost paths are the
    rule; duplicate ``(u, v)`` draws make parallel edges, and node ``n``
    (absent from the mapping) is an unreachable target."""
    n = draw(st.integers(2, 8))
    graph = {u: [] for u in range(n)}
    for u, v, w in draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 3)),
            max_size=4 * n,
        )
    ):
        graph[u].append((v, float(w)))
    return n, graph


def lattice(nx, ny, weight=lambda a, b: 1.0):
    """Two-way ``nx`` x ``ny`` grid, the road-network shape."""
    graph = {}
    for x in range(nx):
        for y in range(ny):
            out = []
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                v = (x + dx, y + dy)
                if 0 <= v[0] < nx and 0 <= v[1] < ny:
                    out.append((v, weight((x, y), v)))
            graph[(x, y)] = out
    return graph


def assert_shared_trees_match_lone(graph, pairs, k):
    trees = ShortestPathTrees(graph)
    for s, t in pairs:
        assert yen_k_shortest_paths(graph, s, t, k, trees=trees) == (
            yen_k_shortest_paths(graph, s, t, k)
        ), (s, t)


class TestShortestPathTrees:
    """Yen with one :class:`ShortestPathTrees` shared by every (s, t) pair
    of a graph must return exactly what the lone call returns: the same
    costs, the same paths, in the same order, ties included."""

    @settings(max_examples=60, deadline=None)
    @given(tied_digraphs(), st.integers(1, 6), st.randoms(use_true_random=False))
    def test_every_pair_matches_lone_call(self, graph_spec, k, rnd):
        n, graph = graph_spec
        pairs = list(itertools.product(range(n + 1), repeat=2))
        rnd.shuffle(pairs)
        assert_shared_trees_match_lone(graph, pairs, k)

    @settings(max_examples=60, deadline=None)
    @given(tied_digraphs(), st.data())
    def test_spur_queries_match_dijkstra(self, graph_spec, data):
        # Arbitrary cut out-edges and removed nodes, asked in any order of
        # one shared instance: each answer is the blocked Dijkstra's.
        n, graph = graph_spec
        trees = ShortestPathTrees(graph)
        nodes = st.integers(0, n)
        for __ in range(data.draw(st.integers(1, 30))):
            s, t = data.draw(nodes), data.draw(nodes)
            cut = frozenset(data.draw(st.sets(nodes, max_size=3)))
            removed = data.draw(st.sets(nodes, max_size=4)) - {s, t}
            expected = dijkstra_generic(graph, s, t, {(s, c) for c in cut}, removed)
            assert trees.path(s, t, cut, removed) == expected

    @pytest.mark.parametrize("nx, ny", [(3, 3), (4, 3), (4, 4)])
    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_unit_lattice(self, nx, ny, k):
        graph = lattice(nx, ny)
        pairs = list(itertools.product(graph, repeat=2))
        random.Random(nx * 100 + ny * 10 + k).shuffle(pairs)
        assert_shared_trees_match_lone(graph, pairs, k)

    def test_lattice_with_parallel_edges(self):
        graph = lattice(4, 4, weight=lambda a, b: float(1 + (a[0] + b[1]) % 2))
        for u in list(graph)[::3]:
            v, w = graph[u][0]
            graph[u].append((v, w + 1.0))
            graph[u].insert(0, (v, 1.0))
        pairs = list(itertools.product(graph, repeat=2))
        random.Random(5).shuffle(pairs)
        assert_shared_trees_match_lone(graph, pairs, 6)

    def test_unreachable_target(self):
        graph = {0: [(1, 1.0)], 1: [(0, 1.0)], 2: [(0, 1.0)]}
        trees = ShortestPathTrees(graph)
        assert yen_k_shortest_paths(graph, 0, 2, 3, trees=trees) == []
        assert yen_k_shortest_paths(graph, 0, 9, 3, trees=trees) == []
        assert yen_k_shortest_paths(graph, 2, 1, 3, trees=trees) == [(2.0, [2, 0, 1])]

    def test_prefix_cost_uses_cheapest_parallel_edge(self):
        graph = {"s": [("a", 2.0), ("a", 1.0), ("b", 1.0)], "a": [("t", 1.0)], "b": [("t", 1.5)]}
        trees = ShortestPathTrees(graph)
        assert trees.weight("s", "a") == 1.0
        assert math.isinf(trees.weight("a", "s"))
        assert yen_k_shortest_paths(graph, "s", "t", 3, trees=trees) == [
            (2.0, ["s", "a", "t"]),
            (2.5, ["s", "b", "t"]),
        ]

    def test_negative_weight_raises(self):
        with pytest.raises(ValueError):
            ShortestPathTrees({"s": [("t", -1.0)]})

    def test_lone_call_runs_dijkstra_generic(self, monkeypatch):
        calls = []
        real = ksp.dijkstra_generic

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(ksp, "dijkstra_generic", counting)
        graph = lattice(3, 3)
        lone = yen_k_shortest_paths(graph, (0, 0), (2, 2), 4)
        assert calls
        calls.clear()
        shared = yen_k_shortest_paths(
            graph, (0, 0), (2, 2), 4, trees=ShortestPathTrees(graph)
        )
        assert not calls
        assert shared == lone
