"""K-shortest loopless paths (Yen's algorithm).

The traverse-graph inference (Algorithm 1 of the paper, line 13) ranks the
top-K shortest paths between each source/destination candidate-edge pair.
Yen's algorithm [16] is implemented generically over any directed graph given
as an adjacency function, so the same code serves both the physical road
network and the conceptual traverse graph.

TGI runs one search per candidate pair over the same small graph, and each
search spurs a Dijkstra at every node of every accepted path.  A
:class:`ShortestPathTrees` built once per graph shares that work between
all searches on it: it keeps one resumable Dijkstra run per (spur node, cut
out-edges of the spur) and answers a spur query with root nodes ``R``
removed from that run whenever removing ``R`` provably changes nothing —
the target is unreachable anyway, or no node of ``R`` is the parent of a
node settled at or before the target.  Otherwise the same rule is applied
to a run with just those parents blocked (memoised too), and so on.  The
runs pop, push and break ties exactly as :func:`dijkstra_generic` does, so
the paths returned with and without the trees are identical.
"""

from __future__ import annotations

import heapq
import math
from typing import (
    Callable,
    Collection,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
)

__all__ = ["ShortestPathTrees", "yen_k_shortest_paths", "dijkstra_generic"]

N = TypeVar("N", bound=Hashable)
# Either an adjacency function, or a plain mapping node -> (neighbor, weight)
# pairs.  The mapping form lets the search use a C-level ``dict.get`` per
# expansion instead of a Python frame, which matters at K-shortest-path call
# volumes.
Adjacency = Union[
    Callable[[N], Iterable[Tuple[N, float]]],
    Mapping[N, Sequence[Tuple[N, float]]],
]


def dijkstra_generic(
    adj: Adjacency,
    source: N,
    target: N,
    removed_edges: Optional[Set[Tuple[N, N]]] = None,
    removed_nodes: Optional[Set[N]] = None,
) -> Tuple[float, List[N]]:
    """Shortest path on an abstract directed graph.

    Args:
        adj: Adjacency function yielding ``(neighbor, weight)`` pairs.
        source: Start node.
        target: End node.
        removed_edges: Directed edges to treat as absent.
        removed_nodes: Nodes to treat as absent (source exempt).

    Returns:
        ``(cost, node_path)``; ``(inf, [])`` when no path exists.
    """
    if source == target:
        return 0.0, [source]
    dist: Dict[N, float] = {source: 0.0}
    prev: Dict[N, N] = {}
    counter = 0
    heap: List[Tuple[float, int, N]] = [(0.0, counter, source)]
    settled: Set[N] = set()
    heappop, heappush = heapq.heappop, heapq.heappush
    dist_get = dist.get
    inf = math.inf
    adj_get = None if callable(adj) else adj.get
    pruned = removed_nodes is not None or removed_edges is not None
    while heap:
        d, __, u = heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if u == target:
            path = [target]
            while path[-1] != source:
                path.append(prev[path[-1]])
            path.reverse()
            return d, path
        neighbors = adj(u) if adj_get is None else adj_get(u, ())
        if pruned:
            for v, w in neighbors:
                if v in settled:
                    continue
                if removed_nodes is not None and v in removed_nodes:
                    continue
                if removed_edges is not None and (u, v) in removed_edges:
                    continue
                if w < 0:
                    raise ValueError("negative edge weights are not supported")
                nd = d + w
                if nd < dist_get(v, inf):
                    dist[v] = nd
                    prev[v] = u
                    counter += 1
                    heappush(heap, (nd, counter, v))
        else:
            for v, w in neighbors:
                if v in settled:
                    continue
                if w < 0:
                    raise ValueError("negative edge weights are not supported")
                nd = d + w
                if nd < dist_get(v, inf):
                    dist[v] = nd
                    prev[v] = u
                    counter += 1
                    heappush(heap, (nd, counter, v))
    return math.inf, []


class _Run:
    """A resumable Dijkstra from ``source`` with the out-edges of the source
    to ``cut`` and every node of ``blocked`` removed.

    Pops, pushes and tie-breaks are those of :func:`dijkstra_generic` (heap
    key ``(dist, push counter)``, strict ``<`` relaxation), so running on
    past a target never changes that target's path.  ``rank`` is each
    settled node's position in the settle order; ``first_child`` the rank
    of the first node settled with a given node as its parent.
    """

    __slots__ = ("source", "_adj_get", "_blocked", "_dist", "_prev", "_heap",
                 "_counter", "rank", "first_child")

    def __init__(self, adj_get, source, cut: FrozenSet, blocked: FrozenSet) -> None:
        self.source = source
        self._adj_get = adj_get
        self._blocked = blocked
        self._dist: Dict = {source: 0.0}
        self._prev: Dict = {}
        self._heap: List[Tuple[float, int, Hashable]] = []
        self._counter = 0
        self.rank: Dict = {source: 0}
        self.first_child: Dict = {}
        # The source is every run's first pop: settle it here and expand it
        # without the cut edges.
        for v, w in adj_get(source, ()):
            if v == source or v in cut or v in blocked:
                continue
            nd = 0.0 + w
            if nd < self._dist.get(v, math.inf):
                self._dist[v] = nd
                self._prev[v] = source
                self._counter += 1
                heapq.heappush(self._heap, (nd, self._counter, v))

    def settle(self, target) -> bool:
        """Run until ``target`` is settled; False when it is unreachable."""
        rank = self.rank
        heap = self._heap
        dist = self._dist
        prev = self._prev
        first_child = self.first_child
        adj_get = self._adj_get
        blocked = self._blocked
        heappop, heappush = heapq.heappop, heapq.heappush
        dist_get = dist.get
        inf = math.inf
        counter = self._counter
        while heap:
            d, __, u = heappop(heap)
            if u in rank:
                continue
            r = rank[u] = len(rank)
            p = prev[u]
            if p not in first_child:
                first_child[p] = r
            for v, w in adj_get(u, ()):
                if v in rank or v in blocked:
                    continue
                nd = d + w
                if nd < dist_get(v, inf):
                    dist[v] = nd
                    prev[v] = u
                    counter += 1
                    heappush(heap, (nd, counter, v))
            if u == target:
                self._counter = counter
                return True
        self._counter = counter
        return False

    def path(self, target) -> Tuple[float, List]:
        """Cost and node path of a settled ``target``."""
        prev = self._prev
        path = [target]
        while path[-1] != self.source:
            path.append(prev[path[-1]])
        path.reverse()
        return self._dist[target], path


_NOTHING: FrozenSet = frozenset()


class ShortestPathTrees:
    """Dijkstra runs shared by every Yen search on one graph.

    Build one per graph and pass it to each
    :func:`yen_k_shortest_paths` call on that graph; the calls return
    exactly what they return without it.

    Args:
        adj: Mapping node -> ``(neighbor, weight)`` pairs, the same mapping
            the searches receive.  It must not change while the trees are
            in use.

    Raises:
        ValueError: on a negative edge weight.
    """

    def __init__(self, adj: Mapping[N, Sequence[Tuple[N, float]]]) -> None:
        self._adj_get = adj.get
        # Parallel edges keep their cheapest weight, as Yen's prefix costs do.
        weights: Dict[Tuple[N, N], float] = {}
        for u, out in adj.items():
            for v, w in out:
                if w < 0:
                    raise ValueError("negative edge weights are not supported")
                if w < weights.get((u, v), math.inf):
                    weights[(u, v)] = w
        self._weights = weights
        # (source, cut, blocked) -> run; most runs block nothing.
        self._runs: Dict[Tuple[N, FrozenSet[N], FrozenSet[N]], _Run] = {}

    def weight(self, u: N, v: N) -> float:
        """Cheapest ``u → v`` edge weight; ``inf`` without an edge."""
        return self._weights.get((u, v), math.inf)

    def _run(self, source: N, cut: FrozenSet[N], blocked: FrozenSet[N]) -> _Run:
        key = (source, cut, blocked)
        run = self._runs.get(key)
        if run is None:
            run = self._runs[key] = _Run(self._adj_get, source, cut, blocked)
        return run

    def path(
        self,
        source: N,
        target: N,
        cut: FrozenSet[N] = _NOTHING,
        removed_nodes: Collection[N] = _NOTHING,
    ) -> Tuple[float, List[N]]:
        """What ``dijkstra_generic(adj, source, target, {(source, c) for c
        in cut}, removed_nodes)`` returns, for ``source`` and ``target``
        outside ``removed_nodes`` (as in every Yen spur search)."""
        blocked = _NOTHING
        while True:
            run = self._run(source, cut, blocked)
            last = run.rank.get(target)
            if last is None:
                if not run.settle(target):
                    # Removing more nodes never makes a target reachable.
                    return math.inf, []
                last = run.rank[target]
            # Removing a node that parents no node settled up to the target
            # only drops heap entries that never become parents, so every
            # other pop happens in the same order.  Block just the nodes
            # that do, and check again on that run.
            first_child_get = run.first_child.get
            parents = [r for r in removed_nodes if first_child_get(r, last + 1) <= last]
            if not parents:
                return run.path(target)
            blocked = blocked.union(parents)


def yen_k_shortest_paths(
    adj: Adjacency,
    source: N,
    target: N,
    k: int,
    trees: Optional[ShortestPathTrees] = None,
) -> List[Tuple[float, List[N]]]:
    """The ``k`` shortest loopless paths from ``source`` to ``target``.

    Classic Yen construction: the best path comes from Dijkstra; each further
    path is found by branching at every *spur node* of the previous one with
    the shared prefix pinned and already-used continuations removed.

    Args:
        trees: Shortest-path runs shared with other calls on the same graph
            (built from ``adj``); the result is the same with or without.

    Returns:
        Up to ``k`` ``(cost, node_path)`` pairs sorted by cost; fewer when
        the graph does not contain ``k`` distinct loopless paths.
    """
    if k <= 0:
        return []
    if trees is None:
        if callable(adj):
            neighbors_of = adj
        else:
            mapping = adj
            neighbors_of = lambda u: mapping.get(u, ())  # noqa: E731

        def weight(u: N, v: N) -> float:
            return min((wt for n, wt in neighbors_of(u) if n == v), default=math.inf)

        def spur_search(node: N, cut: FrozenSet[N], removed_nodes: Set[N]):
            removed_edges = {(node, v) for v in cut}
            return dijkstra_generic(adj, node, target, removed_edges, removed_nodes)

        best_cost, best_path = dijkstra_generic(adj, source, target)
    else:
        weight = trees.weight

        def spur_search(node: N, cut: FrozenSet[N], removed_nodes: Set[N]):
            return trees.path(node, target, cut, removed_nodes)

        best_cost, best_path = trees.path(source, target)
    if not best_path:
        return []
    paths: List[Tuple[float, List[N]]] = [(best_cost, best_path)]
    # Candidate heap with a tiebreak counter so paths never compare.
    candidates: List[Tuple[float, int, int, List[N]]] = []
    seen_paths: Set[Tuple[N, ...]] = {tuple(best_path)}
    counter = 0
    # Lawler's modification: spur searches below the deviation index of the
    # path being branched would rebuild candidates an earlier iteration
    # already produced (identical root prefix, identical removed edges), so
    # each accepted path remembers where it deviated from its parent and
    # branching starts there.  The accepted paths are unchanged; only the
    # redundant Dijkstra runs disappear.
    deviation_of: List[int] = [0]

    while len(paths) < k:
        __, prev_path = paths[-1]
        # Prefix costs of the previous path, computed once per iteration —
        # recomputing the root cost edge-by-edge at every spur node makes
        # the classic formulation quadratic in the path length.
        prefix_costs = [0.0]
        for u, v in zip(prev_path, prev_path[1:]):
            prefix_costs.append(prefix_costs[-1] + weight(u, v))
        for i in range(deviation_of[-1], len(prev_path) - 1):
            spur_node = prev_path[i]
            root_path = prev_path[: i + 1]
            root_cost = prefix_costs[i]

            # Out-edges of the spur already used by an accepted path with
            # this root are cut.
            cut = frozenset(
                p[i + 1] for __, p in paths if len(p) > i and p[: i + 1] == root_path
            )
            # Loopless: forbid revisiting any root node except the spur.
            removed_nodes: Set[N] = set(root_path[:-1])

            spur_cost, spur_path = spur_search(spur_node, cut, removed_nodes)
            if not spur_path:
                continue
            total_path = root_path[:-1] + spur_path
            key = tuple(total_path)
            if key in seen_paths:
                continue
            seen_paths.add(key)
            counter += 1
            heapq.heappush(
                candidates, (root_cost + spur_cost, counter, i, total_path)
            )
        if not candidates:
            break
        cost, __, dev, path = heapq.heappop(candidates)
        paths.append((cost, path))
        deviation_of.append(dev)
    return paths
