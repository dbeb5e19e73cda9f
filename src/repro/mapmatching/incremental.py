"""Incremental map matching (Greenfeld [21]).

The classic online algorithm: each GPS point is matched using geometric
similarity *and* the matching decision taken for the previous point.  The
score of a candidate combines:

* proximity — closer segments score higher,
* orientation — segments aligned with the heading implied by the previous
  GPS point score higher, and
* continuity — candidates topologically reachable from the previous match
  with little detour are preferred.

The paper uses this matcher as the representative of high-sampling-rate-era
algorithms, which degrade badly as the interval grows — reproducing that
degradation is part of Figure 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.geo.point import Point
from repro.mapmatching.base import (
    MapMatcher,
    MatchResult,
    find_candidates,
    stitch_route,
)
from repro.roadnet.network import CandidateEdge, RoadNetwork
from repro.roadnet.shortest_path import DistanceOracle
from repro.trajectory.model import Trajectory

__all__ = ["IncrementalConfig", "IncrementalMatcher"]


@dataclass(frozen=True, slots=True)
class IncrementalConfig:
    """Weights of the incremental score.

    Attributes:
        radius: Candidate search radius in metres.
        max_candidates: Candidates considered per point.
        proximity_weight: Weight of the distance term.
        orientation_weight: Weight of the heading-alignment term.
        continuity_weight: Weight of the topological-continuity term.
        detour_scale: Network detour (metres) at which continuity decays
            to 1/e.
        max_route_distance: Bound on the continuity gap searches.
    """

    radius: float = 50.0
    max_candidates: int = 5
    proximity_weight: float = 10.0
    orientation_weight: float = 2.0
    continuity_weight: float = 3.0
    detour_scale: float = 500.0
    max_route_distance: float = 50_000.0


class IncrementalMatcher(MapMatcher):
    """Greedy point-by-point matcher with look-back of one point.

    Args:
        engine: Optional :class:`~repro.roadnet.engine.RoutingEngine` — the
            matcher then shares the engine's candidate cache, stitch bridges
            and transition oracle (results identical).
    """

    def __init__(
        self,
        network: RoadNetwork,
        config: IncrementalConfig = IncrementalConfig(),
        engine=None,
    ) -> None:
        self._network = network
        self._config = config
        self._engine = engine
        if engine is not None:
            self._oracle = engine.transition_oracle(config.max_route_distance)
        else:
            self._oracle = DistanceOracle(
                network, max_distance=config.max_route_distance
            )

    def match(self, trajectory: Trajectory) -> MatchResult:
        cfg = self._config
        chosen: List[Optional[CandidateEdge]] = []
        prev: Optional[CandidateEdge] = None
        prev_point: Optional[Point] = None

        for gps in trajectory.points:
            candidates = find_candidates(
                self._network,
                gps.point,
                cfg.radius,
                cfg.max_candidates,
                engine=self._engine,
            )
            if not candidates:
                chosen.append(None)
                continue
            best = max(
                candidates,
                key=lambda c: self._score(c, gps.point, prev, prev_point),
            )
            chosen.append(best)
            prev = best
            prev_point = gps.point

        segments = [c.segment.segment_id for c in chosen if c is not None]
        route = stitch_route(self._network, segments, engine=self._engine)
        return MatchResult(route=route, matched=tuple(chosen))

    # ------------------------------------------------------------ scoring

    def _score(
        self,
        candidate: CandidateEdge,
        point: Point,
        prev: Optional[CandidateEdge],
        prev_point: Optional[Point],
    ) -> float:
        cfg = self._config
        score = cfg.proximity_weight / (1.0 + candidate.distance)
        if prev is None or prev_point is None:
            return score
        score += cfg.orientation_weight * self._orientation(candidate, point, prev_point)
        score += cfg.continuity_weight * self._continuity(candidate, prev)
        return score

    def _orientation(
        self, candidate: CandidateEdge, point: Point, prev_point: Point
    ) -> float:
        """Cosine alignment between movement heading and segment heading."""
        move = point - prev_point
        seg = candidate.segment
        direction = seg.polyline[-1] - seg.polyline[0]
        mn = move.norm()
        dn = direction.norm()
        if mn == 0.0 or dn == 0.0:
            return 0.0
        return move.dot(direction) / (mn * dn)

    def _continuity(self, candidate: CandidateEdge, prev: CandidateEdge) -> float:
        """Exponentially decaying preference for small network detours."""
        if candidate.segment.segment_id == prev.segment.segment_id:
            return 1.0
        gap = self._oracle.distance(prev.segment.end, candidate.segment.start)
        if math.isinf(gap):
            return 0.0
        return math.exp(-gap / self._config.detour_scale)
