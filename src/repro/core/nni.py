"""Nearest-neighbor based local route inference — NNI (Sec. III-B.2, Alg. 2).

NNI walks from ``q_i`` towards ``q_{i+1}`` by repeatedly hopping to
constrained nearest-neighbor reference points:

* a candidate next point must not move away from the destination by more
  than the remaining tolerance α (which shrinks by every backward move —
  line 20 of Algorithm 2, guaranteeing eventual arrival), and
* it must not cause a detour: ``(d(p_c, p) + d(p, q_{i+1})) / d(p_c, q_{i+1})``
  must stay within β;
* when the destination itself is among the nearest neighbors it is taken
  exclusively (lines 13–16).

The recursion tree is explored depth-first.  With *substructure sharing*
enabled (the paper's transit-graph optimisation, Fig. 5) each point's
constrained-kNN expansion is computed once and reused by every path that
reaches the point, cutting the number of kNN searches.

Each enumerated point path is densified into a physical route by matching
every point to its best road segment and bridging with shortest paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.reference import Reference
from repro.geo.point import Point
from repro.mapmatching.hmm import HMMConfig, HMMMatcher
from repro.roadnet.cache import LRUCache
from repro.roadnet.network import RoadNetwork
from repro.roadnet.route import Route
from repro.trajectory.model import GPSPoint, Trajectory

__all__ = ["NNIConfig", "NNIStats", "NearestNeighborInference"]

#: Sentinel node ids for the virtual start/destination of the walk.
_START = -1
_DEST = -2


@dataclass(frozen=True, slots=True)
class NNIConfig:
    """NNI parameters (Table II defaults).

    Attributes:
        k: Constrained nearest neighbors kept per recursion (k2, default 4).
        alpha: Initial backward-move tolerance in metres (default 500).
        beta: Detour-ratio tolerance (default 1.5).
        share_substructures: Reuse kNN expansions across paths (Fig. 5).
        candidate_radius: ε for matching walk points onto segments.
        max_paths: Cap on enumerated point paths per pair.
        max_depth: Cap on walk length in points (None: the pool size —
            every pool point may be visited once).
        max_expansions: Budget of DFS node expansions; the recursive search
            over a dense pool enumerates exponentially many partial walks,
            and this bound keeps the (paper-acknowledged) high-density blow
            up finite while preserving the paths found so far.
        max_routes: Cap on distinct local routes returned.
        max_detour_ratio: Local routes longer than this multiple of the
            shortest returned route are discarded.
    """

    k: int = 4
    alpha: float = 500.0
    beta: float = 1.5
    share_substructures: bool = True
    candidate_radius: float = 50.0
    max_paths: int = 32
    max_depth: Optional[int] = None
    max_expansions: int = 50_000
    max_routes: int = 10
    max_detour_ratio: float = 1.5

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        # Negated comparisons so that NaN, which compares false, fails too.
        if not self.alpha >= 0:
            raise ValueError("alpha must be non-negative")
        if not self.beta >= 1.0:
            raise ValueError("beta must be at least 1")


@dataclass(slots=True)
class NNIStats:
    """Instrumentation of one NNI invocation (drives Fig. 13)."""

    n_knn_searches: int = 0
    n_paths: int = 0
    n_reference_points: int = 0


class NearestNeighborInference:
    """Local route inference by constrained nearest-neighbor walking."""

    def __init__(
        self,
        network: RoadNetwork,
        config: NNIConfig = NNIConfig(),
        engine=None,
    ) -> None:
        self._network = network
        self._config = config
        self._engine = engine
        # The paper derives a route from each walk "by applying the
        # map-matching techniques"; an HMM matcher turns the densified walk
        # into a coherent route (greedy per-point snapping would zigzag).
        self._walk_matcher = HMMMatcher(
            network,
            HMMConfig(
                radius=max(2.0 * config.candidate_radius, 100.0),
                max_candidates=4,
            ),
            engine=engine,
        )
        # Cross-query walk memo (engine mode only): reference points come
        # from the shared archive, so distinct queries over the same
        # corridor produce identical monotone walks — the matcher is
        # deterministic, so replaying it is pure waste.
        self._walk_routes: Optional["LRUCache[Tuple[Tuple[float, float], ...], Route]"] = (
            LRUCache(4096) if engine is not None else None
        )

    def infer(
        self, qi: Point, qi1: Point, references: Sequence[Reference]
    ) -> Tuple[List[Route], NNIStats]:
        """Infer the local routes between ``q_i`` and ``q_{i+1}``.

        Returns:
            ``(routes, stats)``; routes deduplicated and capped, preferring
            paths that use more reference points (more evidence).
        """
        cfg = self._config
        stats = NNIStats()
        raw_pool: List[Point] = [p for ref in references for p in ref.points]
        stats.n_reference_points = len(raw_pool)
        pool = self._dedupe_pool(raw_pool)
        if not pool:
            return [], stats

        paths = self._enumerate_paths(qi, qi1, pool, stats)
        stats.n_paths = len(paths)

        # Many enumerated paths collapse to the same monotone walk; the
        # expensive HMM projection runs once per distinct walk.
        seen_walks: Set[Tuple[Tuple[float, float], ...]] = set()
        seen: Set[Tuple[int, ...]] = set()
        scored: List[Tuple[float, Route]] = []
        for path in paths:
            walk = self._monotone_walk(
                [qi] + [pool[i] for i in path] + [qi1]
            )
            walk_key = tuple((p.x, p.y) for p in walk)
            if walk_key in seen_walks:
                continue
            seen_walks.add(walk_key)
            if self._walk_routes is not None:
                route = self._walk_routes.get_or_compute(
                    walk_key, lambda: self._points_to_route(walk)
                )
            else:
                route = self._points_to_route(walk)
            if not route:
                continue
            key = route.segment_ids
            if key in seen:
                continue
            seen.add(key)
            scored.append((route.length(self._network), route))
        # Tightest routes first: all candidates join the same endpoints.
        scored.sort(key=lambda pair: pair[0])
        from repro.core.traverse_graph import _filter_detours

        routes = _filter_detours(
            self._network,
            [route for __, route in scored],
            cfg.max_detour_ratio,
            yardstick=self._endpoint_distance(qi, qi1),
        )
        return routes[: cfg.max_routes], stats

    def _endpoint_distance(self, qi: Point, qi1: Point) -> Optional[float]:
        """Network shortest-path distance between the pair's endpoints."""
        from repro.roadnet.shortest_path import shortest_route_between_segments

        src = self._network.nearest_segments(qi, 1)
        dst = self._network.nearest_segments(qi1, 1)
        if not src or not dst:
            return None
        a = src[0].segment.segment_id
        b = dst[0].segment.segment_id
        if self._engine is not None:
            gap, route = self._engine.shortest_route_between_segments(a, b)
        else:
            gap, route = shortest_route_between_segments(self._network, a, b)
        if math.isinf(gap):
            return None
        return route.length(self._network)

    def _dedupe_pool(self, points: List[Point]) -> List[Point]:
        """One representative per candidate-radius grid cell.

        Reference points from many trips pile up on the same road metres
        apart (GPS noise clusters); walking among them hop-by-hop carries no
        information and starves the recursion.  Points indistinguishable at
        candidate-edge resolution collapse to their first representative.
        """
        cell = max(self._config.candidate_radius, 1.0)
        seen: Set[Tuple[int, int]] = set()
        out: List[Point] = []
        for p in points:
            key = (int(p.x // cell), int(p.y // cell))
            if key in seen:
                continue
            seen.add(key)
            out.append(p)
        return out

    # ------------------------------------------------------------- the walk

    def _enumerate_paths(
        self, qi: Point, qi1: Point, pool: List[Point], stats: NNIStats
    ) -> List[List[int]]:
        """Depth-first recursion of Algorithm 2, collecting point paths.

        A path is the list of pool indices visited strictly between the
        start and the destination.
        """
        cfg = self._config
        transit: Dict[int, List[int]] = {}
        paths: List[List[int]] = []
        # Default depth bound: one visit per pool point, kept under Python's
        # recursion limit.
        max_depth = (
            cfg.max_depth if cfg.max_depth is not None else min(len(pool), 600)
        )
        expansions = 0

        # Distances to the destination, precomputed: used by the α update
        # and to order successors most-progress-first so the depth-first
        # search reaches the destination (and the max_paths cap) quickly.
        dest_dist = [p.distance_to(qi1) for p in pool]

        def position(node: int) -> Point:
            return qi if node == _START else pool[node]

        def fresh_search(node: int, alpha: float, exclude: Optional[Set[int]]) -> List[int]:
            successors = self._constrained_knn(
                position(node), qi1, pool, alpha, exclude
            )
            stats.n_knn_searches += 1
            successors.sort(key=lambda s: -1.0 if s == _DEST else dest_dist[s])
            return successors

        def expand(node: int, alpha: float, visited: Set[int]) -> List[int]:
            if not cfg.share_substructures:
                return fresh_search(node, alpha, visited)
            if node not in transit:
                transit[node] = fresh_search(node, alpha, None)
            shared = transit[node]
            if any(s == _DEST or s not in visited for s in shared):
                return shared
            # Every shared successor is already on the current walk; a
            # fresh non-memoised search keeps the walk alive.
            return fresh_search(node, alpha, visited)

        def dfs(node: int, alpha: float, trace: List[int], visited: Set[int]) -> None:
            nonlocal expansions
            if (
                len(paths) >= cfg.max_paths
                or len(trace) > max_depth
                or expansions >= cfg.max_expansions
            ):
                return
            expansions += 1
            d_here = position(node).distance_to(qi1)
            for succ in expand(node, alpha, visited):
                if len(paths) >= cfg.max_paths or expansions >= cfg.max_expansions:
                    return
                if succ == _DEST:
                    paths.append(list(trace))
                    continue
                if succ in visited:
                    continue
                # Line 20: shrink α by the backward deviation of this move.
                deviation = dest_dist[succ] - d_here
                child_alpha = alpha - max(0.0, deviation)
                visited.add(succ)
                trace.append(succ)
                dfs(succ, child_alpha, trace, visited)
                trace.pop()
                visited.discard(succ)

        dfs(_START, cfg.alpha, [], set())
        return paths

    def _constrained_knn(
        self,
        current: Point,
        dest: Point,
        pool: List[Point],
        alpha: float,
        exclude: Optional[Set[int]] = None,
    ) -> List[int]:
        """One constrained-kNN search (the while-loop of Algorithm 2).

        Scans pool points nearest-first, applying the α and β filters;
        stops at k accepted points, or immediately with only the
        destination when the destination qualifies before k others.
        """
        cfg = self._config
        d_cur_dest = current.distance_to(dest)
        order = sorted(range(len(pool)), key=lambda i: pool[i].squared_distance_to(current))
        accepted: List[int] = []
        dest_rank_dist = current.distance_to(dest)
        for i in order:
            if exclude is not None and i in exclude:
                continue
            p = pool[i]
            d_cp = current.distance_to(p)
            if d_cp == 0.0:
                continue  # the current point itself (or a duplicate)
            # Lines 13–16: take the destination exclusively once it is the
            # nearest remaining option.
            if d_cp >= dest_rank_dist:
                return [_DEST]
            d_p_dest = p.distance_to(dest)
            # α filter (line 9): may not drift beyond the tolerance.
            if d_p_dest - alpha > d_cur_dest:
                continue
            # β filter (line 11): bounded detour.
            if d_cur_dest > 0.0 and (d_cp + d_p_dest) / d_cur_dest > cfg.beta:
                continue
            accepted.append(i)
            if len(accepted) >= cfg.k:
                return accepted
        # Pool exhausted before k hits: the destination is always reachable.
        accepted.append(_DEST)
        return accepted

    # ----------------------------------------------------------- projection

    @staticmethod
    def _monotone_walk(walk: Sequence[Point]) -> List[Point]:
        """The subsequence of a walk making strict progress to the end.

        The α tolerance lets a walk re-visit territory behind itself;
        routing through every such wiggle would charge the route for
        navigation noise, so only strictly progressing points are kept
        (first and last always survive).
        """
        if len(walk) < 2:
            return list(walk)
        dest = walk[-1]
        filtered: List[Point] = [walk[0]]
        for p in walk[1:-1]:
            if p.distance_to(dest) < filtered[-1].distance_to(dest):
                filtered.append(p)
        filtered.append(dest)
        return filtered

    def _points_to_route(self, walk: Sequence[Point]) -> Route:
        """Map a (monotone) walk to a connected route by map matching.

        The walk gets synthetic monotone timestamps and is decoded by the
        shared HMM matcher — the paper's "derive a route ... by applying
        the map-matching techniques" — which yields the coherent corridor
        through the walk rather than a greedy per-point zigzag.
        """
        if len(walk) < 2:
            return Route.empty()
        traj = Trajectory(
            0, tuple(GPSPoint(p, float(i)) for i, p in enumerate(walk))
        )
        return self._walk_matcher.match(traj).route
