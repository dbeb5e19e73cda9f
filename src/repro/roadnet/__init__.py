"""Road network substrate: graph model, routing and generators."""

from repro.roadnet.connectivity import (
    is_strongly_connected,
    network_strongly_connected,
    strongly_connected_components,
    weakly_connected_components,
)
from repro.roadnet.generators import (
    ARTERIAL_SPEED,
    HIGHWAY_SPEED,
    LOCAL_SPEED,
    GridCityConfig,
    grid_city,
    manhattan_line,
    ring_radial_city,
)
from repro.roadnet.cache import CacheStats, LRUCache
from repro.roadnet.engine import EngineConfig, EngineStats, RoutingEngine
from repro.roadnet.io import load_network, network_from_dict, network_to_dict, save_network
from repro.roadnet.ksp import dijkstra_generic, yen_k_shortest_paths
from repro.roadnet.neighborhood import hop_distance, hop_distances, lambda_neighborhood
from repro.roadnet.network import CandidateEdge, RoadNetwork, RoadNode, RoadSegment
from repro.roadnet.route import Route
from repro.roadnet.shortest_path import (
    DistanceOracle,
    LandmarkIndex,
    SearchStats,
    astar,
    combined_heuristic,
    dijkstra,
    dijkstra_all,
    node_path_to_route,
    shortest_route_between_nodes,
    shortest_route_between_segments,
)

__all__ = [
    "ARTERIAL_SPEED",
    "HIGHWAY_SPEED",
    "LOCAL_SPEED",
    "CacheStats",
    "CandidateEdge",
    "DistanceOracle",
    "EngineConfig",
    "EngineStats",
    "GridCityConfig",
    "LRUCache",
    "LandmarkIndex",
    "RoadNetwork",
    "RoadNode",
    "RoadSegment",
    "Route",
    "RoutingEngine",
    "SearchStats",
    "astar",
    "combined_heuristic",
    "dijkstra",
    "dijkstra_all",
    "dijkstra_generic",
    "grid_city",
    "hop_distance",
    "hop_distances",
    "is_strongly_connected",
    "lambda_neighborhood",
    "load_network",
    "manhattan_line",
    "network_from_dict",
    "network_strongly_connected",
    "network_to_dict",
    "node_path_to_route",
    "ring_radial_city",
    "save_network",
    "shortest_route_between_nodes",
    "shortest_route_between_segments",
    "strongly_connected_components",
    "weakly_connected_components",
    "yen_k_shortest_paths",
]
