"""Unit tests for the HRIS system facade."""

import math

import pytest

from repro.core.system import HRIS, HRISConfig, HRISMatcher
from repro.eval.metrics import precision_recall, route_accuracy
from repro.geo.point import Point
from repro.trajectory.model import GPSPoint, Trajectory
from repro.trajectory.resample import downsample


@pytest.fixture(scope="module")
def hris(corridor_world):
    return HRIS(corridor_world.network, corridor_world.archive, HRISConfig())


@pytest.fixture(scope="module")
def low_query(corridor_world):
    return downsample(corridor_world.query, 180.0)


class TestConfig:
    def test_invalid_method(self):
        with pytest.raises(ValueError):
            HRISConfig(local_method="bogus")

    def test_table2_defaults(self):
        # Table II of the paper.
        cfg = HRISConfig()
        assert cfg.phi == 500.0
        assert cfg.tau == 200.0
        assert cfg.lam == 4
        assert cfg.k1 == 5
        assert cfg.k2 == 4
        assert cfg.k3 == 5
        assert cfg.alpha == 500.0
        assert cfg.beta == 1.5

    def test_subconfig_derivation(self):
        cfg = HRISConfig(lam=6, k1=3, k2=2, alpha=100.0, beta=2.0)
        assert cfg.tgi_config().lam == 6
        assert cfg.tgi_config().k_shortest == 3
        assert cfg.nni_config().k == 2
        assert cfg.nni_config().alpha == 100.0
        assert cfg.reference_config().phi == cfg.phi

    @pytest.mark.parametrize(
        "name,value",
        [
            *[
                (name, math.nan)
                for name in (
                    "phi",
                    "tau",
                    "alpha",
                    "beta",
                    "candidate_radius",
                    "splice_epsilon",
                    "entropy_floor",
                    "max_detour_ratio",
                    "time_of_day_window_s",
                )
            ],
            ("phi", -1.0),
            ("candidate_radius", -1.0),
            ("splice_epsilon", -1.0),
            ("time_of_day_window_s", 0.0),
            ("time_of_day_window_s", -60.0),
            ("time_of_day_window_s", math.inf),
            ("max_references", 0),
            ("k1", 0),
            ("k2", 0),
            ("k3", 0),
        ],
    )
    def test_rejects_values_that_degrade_every_query(self, name, value):
        """Accepted, each of these would quietly answer with fewer (or
        fallback-only) routes instead of an error."""
        with pytest.raises(ValueError, match=name):
            HRISConfig(**{name: value})

    def test_zero_values_stay_legal(self):
        HRISConfig(
            tau=0.0,
            alpha=0.0,
            n_landmarks=0,
            route_cache_size=0,
            candidate_cache_size=0,
            support_cache_size=0,
            oracle_cache_size=0,
        )


def _with_point(query: Trajectory, index: int, x: float, y: float, t: float):
    """``query`` with one observation replaced, bypassing ``Trajectory.build``
    (as a caller constructing the dataclass directly would)."""
    points = list(query.points)
    points[index] = GPSPoint(Point(x, y), t)
    return Trajectory(query.traj_id, tuple(points))


class TestInference:
    def test_short_query_raises(self, hris, corridor_world):
        single = corridor_world.query.slice(0, 0)
        with pytest.raises(ValueError):
            hris.infer_routes(single)

    @pytest.mark.parametrize(
        "coord", ["x_nan", "x_inf", "y_nan", "y_ninf", "t_nan", "t_inf"]
    )
    def test_non_finite_query_raises(self, hris, low_query, coord):
        """Rejected up front: downstream, a NaN x reads as "network not
        connected" and an inf x still gets scored routes."""
        p = low_query[1]
        x, y, t = p.x, p.y, p.t
        bad = {"nan": math.nan, "inf": math.inf, "ninf": -math.inf}[
            coord.split("_")[1]
        ]
        if coord[0] == "x":
            x = bad
        elif coord[0] == "y":
            y = bad
        else:
            t = bad
        query = _with_point(low_query, 1, x, y, t)
        with pytest.raises(ValueError, match="not finite"):
            hris.infer_routes(query)
        with pytest.raises(ValueError, match="not finite"):
            hris.infer_routes_batch([low_query, query], workers=2)

    def test_returns_k_routes(self, hris, low_query):
        routes = hris.infer_routes(low_query, 3)
        assert 1 <= len(routes) <= 3
        scores = [r.log_score for r in routes]
        assert scores == sorted(scores, reverse=True)

    def test_default_k_is_k3(self, hris, low_query):
        routes = hris.infer_routes(low_query)
        assert len(routes) <= hris.config.k3

    def test_routes_connected(self, hris, low_query, corridor_world):
        for g in hris.infer_routes(low_query, 3):
            assert g.route.is_connected(corridor_world.network)

    def test_top1_recovers_truth(self, hris, low_query, corridor_world):
        top = hris.infer_routes(low_query, 1)[0]
        acc = route_accuracy(corridor_world.network, corridor_world.truth, top.route)
        assert acc > 0.7
        __, recall = precision_recall(
            corridor_world.network, corridor_world.truth, top.route
        )
        assert recall > 0.8

    def test_details_populated(self, hris, low_query):
        routes, detail = hris.infer_routes_with_details(low_query, 2)
        assert routes
        assert len(detail.pairs) == len(low_query) - 1
        assert detail.total_time_s > 0.0
        for pair in detail.pairs:
            assert pair.method in ("tgi", "nni", "hybrid", "fallback")
            assert pair.n_local_routes >= 1

    def test_deterministic(self, hris, low_query):
        a = hris.infer_routes(low_query, 2)
        b = hris.infer_routes(low_query, 2)
        assert [r.route.segment_ids for r in a] == [r.route.segment_ids for r in b]

    def test_local_method_forcing(self, corridor_world, low_query):
        for method in ("tgi", "nni"):
            hris = HRIS(
                corridor_world.network,
                corridor_world.archive,
                HRISConfig(local_method=method),
            )
            routes = hris.infer_routes(low_query, 1)
            assert routes

    def test_no_history_falls_back_to_shortest_path(self, corridor_world, low_query):
        from repro.core.archive import TrajectoryArchive

        hris = HRIS(corridor_world.network, TrajectoryArchive(), HRISConfig())
        routes, detail = hris.infer_routes_with_details(low_query, 1)
        assert routes
        assert all(p.fallback for p in detail.pairs)


class TestMatcherAdapter:
    def test_match_interface(self, hris, low_query, corridor_world):
        matcher = HRISMatcher(hris)
        result = matcher.match(low_query)
        assert result.route.is_connected(corridor_world.network)
        assert len(result.matched) == len(low_query)
