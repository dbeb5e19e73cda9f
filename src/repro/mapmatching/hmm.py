"""HMM map matching (Newson & Krumm style).

Not one of the paper's competitors, but the de-facto standard matcher today.
It serves two roles in this reproduction:

* the *preprocessing* map-matching step (Sec. II-B aligns archive GPS points
  onto segments before the route inference ever sees them), and
* the ground-truthing of high-sampling-rate trajectories in tests.

Emission is gaussian in the projection distance; transition favours
candidates whose network detour matches the straight-line hop
(``exp(-|d_route - d_euclid| / beta)``); decoding is Viterbi in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.mapmatching.base import (
    DEFAULT_GPS_SIGMA,
    MapMatcher,
    MatchResult,
    find_candidates,
    stitch_route,
)
from repro.roadnet.network import CandidateEdge, RoadNetwork
from repro.roadnet.shortest_path import DistanceOracle
from repro.trajectory.model import Trajectory

__all__ = ["HMMConfig", "HMMMatcher"]


@dataclass(frozen=True, slots=True)
class HMMConfig:
    """HMM matcher parameters.

    Attributes:
        radius: Candidate search radius in metres.
        max_candidates: Candidates kept per point.
        sigma: GPS error std-dev (emission model).
        beta: Scale of the detour penalty in metres (transition model).
        max_route_distance: Bound on candidate-to-candidate route searches.
    """

    radius: float = 100.0
    max_candidates: int = 5
    sigma: float = DEFAULT_GPS_SIGMA
    beta: float = 200.0
    max_route_distance: float = 50_000.0


class HMMMatcher(MapMatcher):
    """Viterbi decoder over the candidate lattice.

    Args:
        engine: Optional :class:`~repro.roadnet.engine.RoutingEngine` used
            for memoised candidate lookups, cached stitch bridges and the
            engine-owned transition oracle (bit-identical results).  Without
            an engine a local :class:`DistanceOracle` preserves the seed
            behaviour.
    """

    def __init__(
        self,
        network: RoadNetwork,
        config: HMMConfig = HMMConfig(),
        engine=None,
    ) -> None:
        self._network = network
        self._config = config
        self._engine = engine
        if engine is not None:
            self._oracle = engine.transition_oracle(config.max_route_distance)
        else:
            self._oracle = DistanceOracle(network, config.max_route_distance)

    def match(self, trajectory: Trajectory) -> MatchResult:
        cfg = self._config
        pts = trajectory.points
        n = len(pts)
        layers: List[List[CandidateEdge]] = [
            find_candidates(
                self._network,
                p.point,
                cfg.radius,
                cfg.max_candidates,
                engine=self._engine,
            )
            for p in pts
        ]

        def log_emission(c: CandidateEdge) -> float:
            z = c.distance / cfg.sigma
            return -0.5 * z * z

        score: List[List[float]] = [[log_emission(c) for c in layers[0]]]
        parent: List[List[int]] = [[-1] * len(layers[0])]

        inf = math.inf
        beta = cfg.beta
        oracle_table = self._oracle.table
        for i in range(1, n):
            d_euclid = pts[i].point.distance_to(pts[i - 1].point)
            # Per-previous-candidate state hoisted out of the pair loop: the
            # distance table, segment id, offset and tail length are the
            # same for every current candidate, so fetch them once (the
            # table is a plain dict, read at dict.get speed below).  The
            # inlined arithmetic below mirrors
            # DistanceOracle.route_distance_between_projections exactly.
            prev_info: List[Optional[tuple]] = []
            for k, prev_cand in enumerate(layers[i - 1]):
                sc = score[i - 1][k]
                if sc == -inf:
                    prev_info.append(None)
                    continue
                seg = prev_cand.segment
                off = prev_cand.projection.offset
                prev_info.append(
                    (
                        sc,
                        seg.segment_id,
                        off,
                        seg.length - off,
                        oracle_table(seg.end),
                    )
                )
            cur: List[float] = []
            par: List[int] = []
            for cand in layers[i]:
                emit = log_emission(cand)
                cand_seg = cand.segment
                cand_id = cand_seg.segment_id
                cand_off = cand.projection.offset
                cand_start = cand_seg.start
                best_val = -inf
                best_k = -1
                for k, info in enumerate(prev_info):
                    if info is None:
                        continue
                    sc, prev_id, prev_off, tail, table = info
                    if prev_id == cand_id and cand_off >= prev_off:
                        d_route = cand_off - prev_off
                    else:
                        via = table.get(cand_start, inf)
                        if via == inf:
                            continue
                        d_route = tail + via + cand_off
                    val = sc + -abs(d_route - d_euclid) / beta + emit
                    if val > best_val:
                        best_val = val
                        best_k = k
                cur.append(best_val)
                par.append(best_k)
            if all(v == -math.inf for v in cur):
                cur = [log_emission(c) for c in layers[i]]
                par = [-1] * len(cur)
            score.append(cur)
            parent.append(par)

        chosen: List[Optional[CandidateEdge]] = [None] * n
        if layers[-1]:
            j = max(range(len(score[-1])), key=lambda idx: score[-1][idx])
            for i in range(n - 1, -1, -1):
                if j < 0 or not layers[i]:
                    if layers[i]:
                        j = max(range(len(score[i])), key=lambda idx: score[i][idx])
                        chosen[i] = layers[i][j]
                        j = parent[i][j]
                    continue
                chosen[i] = layers[i][j]
                j = parent[i][j]

        segments = [c.segment.segment_id for c in chosen if c is not None]
        route = stitch_route(self._network, segments, engine=self._engine)
        return MatchResult(route=route, matched=tuple(chosen))
