"""Output checks, run untimed.  Each returns a list of problems (empty
when the answer is valid)."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

#: One inferred route as the benchmark compares it: (segment ids, log-score).
RouteKey = Tuple[Tuple[int, ...], float]


def route_keys(routes) -> List[RouteKey]:
    """Keys of an ``HRIS.infer_routes`` result."""
    return [(tuple(g.route.segment_ids), g.log_score) for g in routes]


def served_keys(payload) -> List[RouteKey]:
    """Keys of a gateway ``/v1/infer`` reply payload."""
    return [(tuple(r["segments"]), r["log_score"]) for r in payload["routes"]]


def choices(routes) -> List[Tuple[int, ...]]:
    """The local-route choice behind each global route of a result."""
    return [tuple(g.local_indices) for g in routes]


def result_problems(
    network, keys: Sequence[RouteKey], k: int, choices: Optional[Sequence[Tuple[int, ...]]] = None
) -> List[str]:
    """Structural checks on one top-k result.

    Every route is a non-empty chain of segments in which each segment
    starts where the previous one ends; there are at most ``k`` routes and
    scores never increase down the list.  With ``choices`` (the local
    routes each global route combines, known in process only), no global
    route appears twice.
    """
    problems = []
    if not keys:
        problems.append("no route")
    if len(keys) > k:
        problems.append(f"{len(keys)} routes for k={k}")
    if choices is not None and len(set(choices)) != len(choices):
        problems.append("duplicate global routes")
    for rank, (segments, score) in enumerate(keys):
        if not segments:
            problems.append(f"route {rank} is empty")
            continue
        for a, b in zip(segments, segments[1:]):
            if network.segment(a).end != network.segment(b).start:
                problems.append(f"route {rank} breaks between segments {a} and {b}")
                break
        if rank and score > keys[rank - 1][1]:
            problems.append(f"score rises at rank {rank}")
    return problems


def repeats_a_route(keys: Sequence[RouteKey]) -> bool:
    """Whether two global routes of a result stitch into the same segments.

    Distinct local-route choices can stitch into one physical route; the
    program does not merge them, so this is counted, not failed.
    """
    return len({segments for segments, __ in keys}) != len(keys)
