"""Road-network serialisation.

A small JSON format so generated networks (and any externally converted map,
e.g. an OSM extract projected to planar metres) can be saved and reloaded.

Also persists the :class:`~repro.roadnet.shortest_path.LandmarkIndex`
alongside saved networks: the ALT distance tables are exact and a pure
function of the network, so repeated runs over the same saved world can
reload them instead of re-running one Dijkstra sweep per landmark per
direction.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.geo.point import Point
from repro.roadnet.network import RoadNetwork, RoadNode, RoadSegment
from repro.roadnet.shortest_path import LandmarkIndex

__all__ = [
    "network_to_dict",
    "network_from_dict",
    "save_network",
    "load_network",
    "landmarks_to_dict",
    "landmarks_from_dict",
    "save_landmarks",
    "load_landmarks",
]


def network_to_dict(network: RoadNetwork) -> Dict[str, Any]:
    """Serialise a network to a JSON-compatible dict."""
    return {
        "format": "repro-roadnet-v1",
        "nodes": [
            {"id": n.node_id, "x": n.point.x, "y": n.point.y}
            for n in network.nodes()
        ],
        "segments": [
            {
                "id": s.segment_id,
                "start": s.start,
                "end": s.end,
                "speed": s.speed_limit,
                "shape": [[p.x, p.y] for p in s.polyline],
            }
            for s in network.segments()
        ],
    }


def network_from_dict(data: Dict[str, Any]) -> RoadNetwork:
    """Deserialise a network produced by :func:`network_to_dict`.

    Raises:
        ValueError: On an unknown format marker or malformed payload.
    """
    if data.get("format") != "repro-roadnet-v1":
        raise ValueError(f"unknown network format: {data.get('format')!r}")
    net = RoadNetwork()
    for n in data["nodes"]:
        net.add_node(RoadNode(int(n["id"]), Point(float(n["x"]), float(n["y"]))))
    for s in data["segments"]:
        shape = [Point(float(x), float(y)) for x, y in s["shape"]]
        net.add_segment(
            RoadSegment.build(
                int(s["id"]), int(s["start"]), int(s["end"]), shape, float(s["speed"])
            )
        )
    return net


def save_network(network: RoadNetwork, path: Union[str, Path]) -> None:
    """Write a network to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(network_to_dict(network), f)


def load_network(path: Union[str, Path]) -> RoadNetwork:
    """Read a network saved by :func:`save_network`."""
    with open(path, "r", encoding="utf-8") as f:
        return network_from_dict(json.load(f))


# ----------------------------------------------------------- landmark index

_LANDMARKS_FORMAT = "repro-landmarks-v1"


def landmarks_to_dict(index: LandmarkIndex) -> Dict[str, Any]:
    """Serialise a landmark index to a JSON-compatible dict.

    Distance tables are stored with string node-id keys (JSON objects);
    :func:`landmarks_from_dict` restores the integer keys.
    """
    return {
        "format": _LANDMARKS_FORMAT,
        "landmarks": list(index.landmarks),
        "forward": [
            {str(node): dist for node, dist in table.items()}
            for table in index.forward_tables
        ],
        "backward": [
            {str(node): dist for node, dist in table.items()}
            for table in index.backward_tables
        ],
    }


def landmarks_from_dict(data: Dict[str, Any]) -> LandmarkIndex:
    """Deserialise a landmark index produced by :func:`landmarks_to_dict`.

    Raises:
        ValueError: On an unknown format marker or malformed payload.
    """
    if data.get("format") != _LANDMARKS_FORMAT:
        raise ValueError(f"unknown landmarks format: {data.get('format')!r}")
    landmarks = tuple(int(v) for v in data["landmarks"])
    forward = tuple(
        {int(node): float(dist) for node, dist in table.items()}
        for table in data["forward"]
    )
    backward = tuple(
        {int(node): float(dist) for node, dist in table.items()}
        for table in data["backward"]
    )
    if not (len(landmarks) == len(forward) == len(backward)):
        raise ValueError("landmark table counts disagree")
    return LandmarkIndex(landmarks, forward, backward)


def save_landmarks(index: LandmarkIndex, path: Union[str, Path]) -> None:
    """Write a landmark index to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(landmarks_to_dict(index), f)


def load_landmarks(path: Union[str, Path]) -> LandmarkIndex:
    """Read a landmark index saved by :func:`save_landmarks`."""
    with open(path, "r", encoding="utf-8") as f:
        return landmarks_from_dict(json.load(f))

