"""Workload inputs, generated from the seed given on the command line.

Each workload has one fixed world: the road network, the demand model and
the archive come from the repository's scenario generator
(``repro.datasets.synthetic.build_scenario``) under the workload's own
world seed, as do the held-out trips its ingest phases add (drawn from the
world's demand model at the archive's sampling-interval mixture).  The
run's ``--seed`` draws the queries from the same demand model (Zipf route
choice, high-rate noisy drive, then downsampling).  Runs with different
seeds therefore differ in their query sample, not in the city, so
run-to-run spread measures the program rather than the world.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.datasets.synthetic import Scenario, ScenarioConfig, build_scenario
from repro.roadnet.generators import GridCityConfig
from repro.roadnet.network import RoadNetwork
from repro.roadnet.route import Route
from repro.trajectory.model import Trajectory
from repro.trajectory.resample import downsample
from repro.trajectory.simulate import DriveConfig, drive_route

#: Queries every run times at least, so that p90 has 10 samples beyond it.
MIN_TIMED = 100

#: Distinct queries run untimed after set-up to warm the caches.
WARM_QUERIES = 10


@dataclass(frozen=True)
class Spec:
    """One workload's generator parameters.

    ``config`` (with ``n_archive_trips=archive_trips`` and ``world_seed``)
    generates the world; ``held_out`` trips are drawn for the ingest tail
    that follows the timed queries (``dense_ingest`` draws one more trip
    per timed query, added after it).
    """

    name: str
    config: ScenarioConfig
    archive_trips: int
    world_seed: int
    held_out: int
    query_interval_s: float


_SPECS = (
    Spec(
        name="sparse",
        config=ScenarioConfig(
            grid=GridCityConfig(nx=20, ny=20),
            n_od_pairs=6,
            min_od_distance=7_000.0,
            n_background_trips=10,
            archive_intervals=(60.0, 180.0, 300.0),
            archive_interval_weights=(0.2, 0.4, 0.4),
        ),
        archive_trips=70,
        world_seed=13,  # sparse_scenario's default
        held_out=160,
        query_interval_s=600.0,
    ),
    Spec(
        name="dense_ingest",
        config=ScenarioConfig(
            grid=GridCityConfig(nx=14, ny=14),
            n_od_pairs=8,
            n_background_trips=20,
            archive_intervals=(15.0, 30.0, 60.0),
            archive_interval_weights=(0.3, 0.4, 0.3),
        ),
        archive_trips=600,
        world_seed=29,  # density_scenario's default
        held_out=240,
        query_interval_s=120.0,
    ),
    Spec(
        name="served",
        config=ScenarioConfig(
            grid=GridCityConfig(nx=14, ny=14),
            n_od_pairs=8,
            n_background_trips=20,
        ),
        archive_trips=240,
        world_seed=7,  # standard_scenario's default
        held_out=128,
        query_interval_s=300.0,
    ),
)

SPECS: Dict[str, Spec] = {spec.name: spec for spec in _SPECS}


@dataclass
class World:
    """Everything a run needs, generated before any timing starts."""

    network: RoadNetwork
    trips: List[Trajectory]  # the archive, in id order
    held_out: List[Trajectory]
    queries: List[Tuple[Trajectory, Route]]  # (downsampled query, true route)


def _demand_drive(
    scenario: Scenario, rng: np.random.Generator, interval_s: float, od: int
):
    """One trip of the world's demand model along OD pair ``od``, drawn as
    ``build_scenario`` draws its trips."""
    config = scenario.config
    choice = int(rng.choice(len(scenario.od_routes[od]), p=scenario.route_probabilities[od]))
    return drive_route(
        scenario.network,
        scenario.od_routes[od][choice],
        0,
        start_time=float(rng.uniform(0.0, 86_400.0)),
        config=DriveConfig(sample_interval_s=interval_s, gps_sigma_m=config.gps_sigma),
        rng=rng,
    )


def generate(spec: Spec, seed: int, n_queries: int, held_out: int) -> World:
    """The workload's world with ``held_out`` trips to add, and
    ``n_queries`` queries drawn with ``seed``."""
    scenario = build_scenario(
        dataclasses.replace(
            spec.config,
            n_archive_trips=spec.archive_trips,
            n_queries=0,
            seed=spec.world_seed,
        )
    )
    config = scenario.config
    # Queries and held-out trips cycle through the OD pairs (stratified
    # rather than uniform, so every run has the same mix of corridors); the
    # route, start time, sampling interval and noise are drawn.
    n_od = len(scenario.od_routes)
    # The held-out trips are the same for every seed, so that each run adds
    # the same trips and its ingest rate compares like with like: R-tree
    # insertion cost depends heavily on which points arrive.
    trips_rng = np.random.default_rng([spec.world_seed, 1])
    held = [
        _demand_drive(
            scenario,
            trips_rng,
            float(trips_rng.choice(config.archive_intervals, p=config.archive_interval_weights)),
            i % n_od,
        ).trajectory
        for i in range(held_out)
    ]
    queries_rng = np.random.default_rng([seed, 2])
    queries = []
    while len(queries) < n_queries:
        drive = _demand_drive(scenario, queries_rng, config.query_interval, len(queries) % n_od)
        query = downsample(drive.trajectory, spec.query_interval_s)
        # A query needs two points after downsampling.
        if len(query) >= 2:
            queries.append((query, drive.route))
    trips = sorted(scenario.archive.trajectories(), key=lambda t: t.traj_id)
    return World(scenario.network, trips, held, queries)
