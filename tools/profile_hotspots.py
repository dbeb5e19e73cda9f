#!/usr/bin/env python
"""Profile the hot paths of a routing configuration with cProfile.

The throughput benchmark answers *how fast* each configuration is; this
tool answers *where the time goes*.  It builds the standard evaluation
scenario, runs every query through the chosen configuration under
cProfile, and prints the top functions by cumulative time::

    PYTHONPATH=src python tools/profile_hotspots.py --top 25
    PYTHONPATH=src python tools/profile_hotspots.py --config no_landmarks \
        --sort tottime

Configurations are the same named set as ``tools/check_identity.py``
(``engine``, ``no_landmarks``, ...), so a profile always corresponds to
an identity-gated configuration.  ``--matcher`` profiles HMM map-matching
of long drives on a grid city through the default engine instead of the
inference scenario.

Caveat: cProfile charges a fixed overhead per function call, which
inflates configurations that make many cheap calls relative to those
that make few expensive ones.  Use the output to find hotspots inside
one configuration; use ``benchmarks/bench_throughput.py`` (plain
``perf_counter`` timings) to compare configurations against each other.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def _inference_workload(config_name: str, n_queries: int, interval: float):
    """Return a zero-arg callable running the inference scenario."""
    from repro.core.system import HRIS
    from repro.eval.harness import standard_scenario
    from repro.trajectory.resample import downsample

    sys.path.insert(0, str(REPO_ROOT / "tools"))
    from check_identity import _configs

    configs = _configs()
    if config_name not in configs:
        raise SystemExit(
            f"unknown config {config_name!r}; choose from {sorted(configs)}"
        )
    scenario = standard_scenario(seed=7, n_queries=n_queries)
    queries = [
        q
        for q in (downsample(c.query, interval) for c in scenario.queries)
        if len(q) >= 2
    ]
    hris = HRIS(scenario.network, scenario.archive, configs[config_name])
    hris.infer_routes(queries[0])  # warm caches outside the profile

    def run():
        for q in queries:
            hris.infer_routes(q)

    return run, f"{len(queries)} inference queries"


def _matcher_workload(config_name: str, grid_n: int, n_drives: int):
    """Return a zero-arg callable map-matching simulated drives."""
    import numpy as np

    from repro.mapmatching.hmm import HMMConfig, HMMMatcher
    from repro.roadnet.engine import RoutingEngine
    from repro.roadnet.generators import GridCityConfig, grid_city
    from repro.roadnet.shortest_path import shortest_route_between_nodes
    from repro.trajectory.simulate import DriveConfig, drive_route

    if config_name != "engine":
        raise SystemExit(f"--matcher supports config 'engine' only, not {config_name!r}")
    city = grid_city(
        GridCityConfig(nx=grid_n, ny=grid_n, drop_fraction=0.08, one_way_fraction=0.1),
        np.random.default_rng(41),
    )
    n_nodes = len(list(city.nodes()))
    drive_rng = np.random.default_rng(5)
    trajs = []
    for k in range(n_drives):
        a, b = drive_rng.choice(n_nodes, size=2, replace=False)
        __, route = shortest_route_between_nodes(city, int(a), int(b))
        if not route.segment_ids:
            continue
        drive = drive_route(
            city,
            route,
            traj_id=k,
            config=DriveConfig(sample_interval_s=15.0, gps_sigma_m=12.0),
            rng=np.random.default_rng(100 + k),
        )
        trajs.append(drive.trajectory)
    engine = RoutingEngine(city)
    matcher = HMMMatcher(city, HMMConfig(), engine=engine)

    def run():
        for t in trajs:
            matcher.match(t)

    return run, f"{len(trajs)} drives on a {n_nodes}-node grid"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--config",
        default="engine",
        help="configuration name (see tools/check_identity.py)",
    )
    parser.add_argument(
        "--matcher",
        action="store_true",
        help="profile HMM map-matching instead of route inference",
    )
    parser.add_argument("--top", type=int, default=25, help="rows to print")
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=["cumulative", "tottime", "ncalls"],
        help="pstats sort key",
    )
    parser.add_argument("--queries", type=int, default=8, help="inference queries")
    parser.add_argument(
        "--interval", type=float, default=300.0, help="sampling interval (s)"
    )
    parser.add_argument("--grid", type=int, default=20, help="matcher grid side")
    parser.add_argument("--drives", type=int, default=6, help="matcher drives")
    args = parser.parse_args(argv)

    if args.matcher:
        run, desc = _matcher_workload(args.config, args.grid, args.drives)
    else:
        run, desc = _inference_workload(args.config, args.queries, args.interval)
    print(f"profiling {args.config!r}: {desc}")

    profiler = cProfile.Profile()
    profiler.enable()
    run()
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
