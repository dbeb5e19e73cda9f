"""Distributed archive correctness: fan-out equivalence and failure paths.

The contract under test mirrors ``tests/test_sharded_archive.py`` one
level up the deployment ladder: :class:`RemoteShardedArchive` backed by a
fleet of loopback :class:`ArchiveShardServer` processes must return
*bit-identical* query results to :class:`InMemoryArchive` on identical
trips — including pair queries straddling shard-ownership boundaries —
and a degraded shard must surface as a typed error after a bounded retry
schedule, never as a hang.
"""

import math
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.archive import InMemoryArchive, convert_archive, make_archive
from repro.core.remote import (
    PROTOCOL_VERSION,
    ArchiveShardServer,
    RemoteShardedArchive,
    ShardProtocolError,
    ShardTimeoutError,
    ShardUnavailableError,
    _ShardConnection,
    _WIRE_V,
    parse_address,
    request_shutdown,
    shard_of_tile,
)
from repro.geo.bbox import BBox
from repro.geo.point import Point
from repro.trajectory.model import GPSPoint, Trajectory

TILE = 500.0
NUM_SHARDS = 3


def random_trips(rng, n_trips=12, extent=4_000.0):
    """Random trajectories with 200–900 m strides: most cross several
    tiles, so their points land on different owning shards."""
    trips = []
    for __ in range(n_trips):
        n = int(rng.integers(2, 12))
        x, y = rng.uniform(0.0, extent, size=2)
        pts = []
        t = 0.0
        for __ in range(n):
            pts.append(GPSPoint(Point(x, y), t))
            heading = rng.uniform(0.0, 2.0 * math.pi)
            step = rng.uniform(200.0, 900.0)
            x += step * math.cos(heading)
            y += step * math.sin(heading)
            t += 30.0
        trips.append(Trajectory.build(0, pts))
    return trips


@pytest.fixture
def cluster():
    servers = [ArchiveShardServer(i, NUM_SHARDS, TILE).start() for i in range(NUM_SHARDS)]
    addrs = [f"127.0.0.1:{s.address[1]}" for s in servers]
    yield servers, addrs
    for server in servers:
        server.stop()


def matched_archives(rng, addrs, n_trips=12):
    mem = InMemoryArchive()
    remote = RemoteShardedArchive(addrs, timeout_s=5.0)
    for trip in random_trips(rng, n_trips):
        assert mem.add(trip) == remote.add(trip)
    return mem, remote


class TestOwnership:
    def test_shard_of_tile_is_deterministic_and_total(self):
        for key in [(0, 0), (-3, 7), (12, -5), (1000, 1000), (-1, -1)]:
            owner = shard_of_tile(key, NUM_SHARDS)
            assert 0 <= owner < NUM_SHARDS
            assert owner == shard_of_tile(key, NUM_SHARDS)  # pure function
        with pytest.raises(ValueError):
            shard_of_tile((0, 0), 0)

    def test_server_rejects_unowned_insert(self, cluster):
        servers, addrs = cluster
        # Find a tile NOT owned by shard 0 and push a point there directly.
        key = next(
            (ix, 0) for ix in range(64) if shard_of_tile((ix, 0), NUM_SHARDS) != 0
        )
        x = (key[0] + 0.5) * TILE
        conn = _ShardConnection(parse_address(addrs[0]), 5.0, 0, 0.0, [])
        try:
            with pytest.raises(ShardProtocolError, match="owned by"):
                conn.request(
                    {"op": "insert", "v": _WIRE_V, "points": [[0, 0, x, 250.0]]}
                )
        finally:
            conn.close()

    def test_server_rejects_wrong_wire_version(self, cluster):
        __, addrs = cluster
        conn = _ShardConnection(parse_address(addrs[0]), 5.0, 0, 0.0, [])
        try:
            with pytest.raises(ShardProtocolError, match="wire version"):
                conn.request({"op": "ping", "v": 99})
        finally:
            conn.close()


class TestNonFiniteInput:
    """Non-finite coordinates, timestamps and radii get a typed
    ``bad_request`` reply on a connection that stays open, and leave the
    log position and point count unchanged.  A dropped connection would
    look like a dead replica to the client."""

    #: One request per op and field; ``BAD`` is replaced by the value
    #: under test.
    CASES = {
        "insert_x": {"op": "insert", "points": [[1, 0, "BAD", 10.0, 0.0]]},
        "insert_y": {"op": "insert", "points": [[1, 0, 10.0, "BAD", 0.0]]},
        "insert_t": {"op": "insert", "points": [[1, 0, 10.0, 10.0, "BAD"]]},
        "delete": {"op": "delete", "points": [[0, 0, "BAD", 10.0]]},
        "circles_center": {"op": "search_circles", "queries": [["BAD", 0.0, 1.0]]},
        "circles_radius": {"op": "search_circles", "queries": [[0.0, 0.0, "BAD"]]},
        "bbox": {"op": "search_bbox", "bbox": [0.0, 0.0, "BAD", 10.0]},
        "pair_point": {
            "op": "near_pair",
            "qi": ["BAD", 0.0],
            "qi1": [0.0, 0.0],
            "radius": 100.0,
        },
        "pair_radius": {
            "op": "near_pair",
            "qi": [0.0, 0.0],
            "qi1": [10.0, 0.0],
            "radius": "BAD",
        },
    }

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_as_bad_request_without_lsn_bump(self, case, bad):
        from repro.core.remote import _recv_frame, _send_frame

        def substitute(value):
            if isinstance(value, list):
                return [substitute(v) for v in value]
            return bad if value == "BAD" else value

        server = ArchiveShardServer(0, 1, TILE).start()
        sock = socket.create_connection(server.address, timeout=5.0)

        def call(payload):
            _send_frame(sock, dict(payload, v=_WIRE_V))
            reply = _recv_frame(sock)
            assert reply is not None, "server dropped the connection"
            return reply

        try:
            seed = call({"op": "insert", "points": [[0, 0, 10.0, 10.0, 0.0]]})
            assert seed["lsn"] == 1
            reply = call({k: substitute(v) for k, v in self.CASES[case].items()})
            assert (reply["ok"], reply["kind"]) == (False, "bad_request")
            stats = call({"op": "stats"})
            assert (stats["lsn"], stats["num_points"]) == (1, 1)
        finally:
            sock.close()
            server.stop()


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_randomised_queries_identical(self, cluster, seed):
        __, addrs = cluster
        rng = np.random.default_rng(seed)
        mem, remote = matched_archives(rng, addrs)
        for __ in range(20):
            q = Point(*rng.uniform(-500.0, 4_500.0, size=2))
            radius = float(rng.uniform(50.0, 1_500.0))
            assert mem.points_near(q, radius) == remote.points_near(q, radius)
            x0, y0 = rng.uniform(-500.0, 4_000.0, size=2)
            box = BBox(
                x0, y0, x0 + rng.uniform(10.0, 2_000.0), y0 + rng.uniform(10.0, 2_000.0)
            )
            assert mem.points_in_bbox(box) == remote.points_in_bbox(box)
            assert mem.density_per_km2(box) == remote.density_per_km2(box)
        remote.close()

    @pytest.mark.parametrize("seed", range(4))
    def test_pair_queries_straddle_ownership_boundaries(self, cluster, seed):
        __, addrs = cluster
        rng = np.random.default_rng(100 + seed)
        mem, remote = matched_archives(rng, addrs)
        # The fleet must actually be split for the test to mean anything.
        resident = [s["num_points"] for s in remote.shard_stats()]
        assert sum(1 for n in resident if n > 0) >= 2
        for __ in range(12):
            qi = Point(*rng.uniform(0.0, 4_000.0, size=2))
            qi1 = Point(*rng.uniform(0.0, 4_000.0, size=2))
            radius = float(rng.uniform(400.0, 1_500.0))
            assert mem.trajectories_near_pair(qi, qi1, radius) == (
                remote.trajectories_near_pair(qi, qi1, radius)
            )
        remote.close()

    def test_merged_results_are_canonically_ordered(self, cluster):
        __, addrs = cluster
        rng = np.random.default_rng(42)
        mem, remote = matched_archives(rng, addrs, n_trips=16)
        q = Point(2_000.0, 2_000.0)
        hits = remote.points_near(q, 2_500.0)
        assert hits == sorted(hits, key=lambda ref: (ref.traj_id, ref.index))
        # The big radius spans tiles owned by several shards.
        owners = {
            shard_of_tile(remote.tile_key(remote.point(ref).point), NUM_SHARDS)
            for ref in hits
        }
        assert len(owners) >= 2
        near_i, near_j = remote.trajectories_near_pair(q, Point(500.0, 3_500.0), 2_000.0)
        for near in (near_i, near_j):
            assert list(near) == sorted(near)
            assert all(idxs == sorted(idxs) for idxs in near.values())
        remote.close()

    def test_mutations_forwarded_to_owners(self, cluster):
        __, addrs = cluster
        rng = np.random.default_rng(7)
        mem, remote = matched_archives(rng, addrs, n_trips=8)
        probe = Point(2_000.0, 2_000.0)
        extra = random_trips(rng, 1)[0]
        assert mem.add(extra) == remote.add(extra)
        victim = mem.trajectory_ids()[0]
        assert mem.remove(victim) and remote.remove(victim)
        for radius in (200.0, 800.0, 3_000.0):
            assert mem.points_near(probe, radius) == remote.points_near(probe, radius)
        assert sum(s["num_points"] for s in remote.shard_stats()) == mem.num_points
        remote.close()

    def test_preload_and_attach(self, cluster):
        servers, addrs = cluster
        rng = np.random.default_rng(9)
        mem = InMemoryArchive()
        for trip in random_trips(rng):
            mem.add(trip)
        for server in servers:
            server.preload(mem.iter_points())
        remote = RemoteShardedArchive(addrs)
        remote.attach_trips(mem.trajectories())
        assert sum(s["num_points"] for s in remote.shard_stats()) == mem.num_points
        q = Point(1_500.0, 1_500.0)
        assert mem.trajectories_near(q, 2_000.0) == remote.trajectories_near(q, 2_000.0)
        with pytest.raises(ValueError, match="already present"):
            remote.attach_trips([mem.trajectory(mem.trajectory_ids()[0])])
        remote.close()

    def test_convert_archive_push_is_idempotent(self, cluster):
        servers, addrs = cluster
        rng = np.random.default_rng(11)
        mem = InMemoryArchive()
        for trip in random_trips(rng):
            mem.add(trip)
        for server in servers:  # pre-seed, then convert pushes the same points
            server.preload(mem.iter_points())
        remote = convert_archive(mem, "remote", shard_addrs=addrs)
        assert remote.trajectory_ids() == mem.trajectory_ids()
        assert sum(s["num_points"] for s in remote.shard_stats()) == mem.num_points
        q = Point(500.0, 500.0)
        assert mem.points_near(q, 2_000.0) == remote.points_near(q, 2_000.0)
        remote.close()


class TestFailureSurface:
    def test_stalled_shard_bounded_retry_then_typed_error(self):
        """A shard that answers the handshake then goes silent must cost a
        bounded number of attempts and raise ShardTimeoutError — not hang."""
        hello = {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "shard_index": 0,
            "num_shards": 1,
            "tile_size": TILE,
            "num_points": 0,
            "num_tiles": 0,
        }
        accepted = []

        def handle(sock):
            from repro.core.remote import _recv_frame, _send_frame

            try:
                while True:
                    request = _recv_frame(sock)
                    if request is None:
                        return
                    if request.get("op") == "hello":
                        _send_frame(sock, hello)
                    # any other op: stall forever (no reply)
            except (OSError, ValueError):
                pass

        def accept_loop(listener):
            while True:
                try:
                    sock, __ = listener.accept()
                except OSError:
                    return
                accepted.append(sock)
                threading.Thread(target=handle, args=(sock,), daemon=True).start()

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        thread = threading.Thread(target=accept_loop, args=(listener,), daemon=True)
        thread.start()
        addr = f"127.0.0.1:{listener.getsockname()[1]}"
        try:
            remote = RemoteShardedArchive(
                [addr], timeout_s=0.2, retries=2, backoff_s=0.01
            )
            t0 = time.perf_counter()
            with pytest.raises(ShardTimeoutError) as excinfo:
                remote.points_near(Point(0.0, 0.0), 100.0)
            elapsed = time.perf_counter() - t0
            assert excinfo.value.attempts == 3  # retries + 1, then stop
            assert excinfo.value.op == "search_circles"
            assert elapsed < 5.0  # bounded: ~3 x 0.2s timeouts + backoff
            assert len(accepted) >= 2  # it reconnected between retries
            remote.close()
        finally:
            listener.close()
            for sock in accepted:
                sock.close()

    def test_unreachable_shard_raises_unavailable(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        with pytest.raises(ShardUnavailableError):
            RemoteShardedArchive(
                [f"127.0.0.1:{port}"], timeout_s=0.2, retries=0, backoff_s=0.01
            )

    def test_inconsistent_fleet_rejected(self):
        # Two servers that each claim a 3-shard deployment, client has 2.
        servers = [ArchiveShardServer(i, 3, TILE).start() for i in range(2)]
        addrs = [f"127.0.0.1:{s.address[1]}" for s in servers]
        try:
            with pytest.raises(ShardProtocolError, match="3-shard deployment"):
                RemoteShardedArchive(addrs)
        finally:
            for server in servers:
                server.stop()

    def test_missing_shard_rejected(self):
        # Two servers for shard 0 form a legal replica set, but shard 1 of
        # the declared 2-shard deployment has no server at all.
        servers = [ArchiveShardServer(0, 2, TILE).start() for __ in range(2)]
        addrs = [f"127.0.0.1:{s.address[1]}" for s in servers]
        try:
            with pytest.raises(ShardProtocolError, match="have no server"):
                RemoteShardedArchive(addrs)
        finally:
            for server in servers:
                server.stop()

    def test_tile_size_mismatch_rejected(self, cluster):
        __, addrs = cluster
        with pytest.raises(ShardProtocolError, match="tile_size"):
            RemoteShardedArchive(addrs, expected_tile_size=TILE + 1.0)

    def test_make_archive_remote_requires_addresses(self):
        with pytest.raises(ValueError, match="shard address"):
            make_archive("remote")

    def test_parse_address_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_address("no-port-here")
        assert parse_address("host:80") == ("host", 80)
        assert parse_address(("h", 80)) == ("h", 80)


class TestLifecycle:
    def test_request_shutdown_stops_server(self):
        server = ArchiveShardServer(0, 1, TILE).start()
        request_shutdown(f"127.0.0.1:{server.address[1]}")
        server._thread.join(timeout=5.0)
        assert not server._thread.is_alive()
        server.stop()  # idempotent after remote shutdown

    def test_stop_after_start_is_prompt(self):
        # The stock socketserver loop notices a shutdown only at its next
        # 0.5 s poll; stop() must wake it instead.  A ping round trip first
        # leaves the loop idle in its select.  Best of three cycles, so one
        # scheduler hiccup cannot fail the test.
        durations = []
        for __ in range(3):
            server = ArchiveShardServer(0, 1, TILE).start()
            conn = _ShardConnection(server.address, 5.0, 0, 0.0, [])
            try:
                assert conn.request({"op": "ping", "v": _WIRE_V})["ok"]
            finally:
                conn.close()
            t0 = time.perf_counter()
            server.stop()
            durations.append(time.perf_counter() - t0)
            assert server._thread is None
        assert min(durations) < 0.1, durations

    def test_stop_without_start_does_not_block(self):
        server = ArchiveShardServer(0, 1, TILE)
        stopper = threading.Thread(target=server.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5.0)
        assert not stopper.is_alive(), "stop() blocked on a never-started server"

    def test_prepare_for_fork_drops_connections_then_reconnects(self, cluster):
        __, addrs = cluster
        rng = np.random.default_rng(17)
        mem, remote = matched_archives(rng, addrs, n_trips=6)
        remote.prepare_for_fork()
        q = Point(2_000.0, 2_000.0)  # lazily reconnects
        assert mem.points_near(q, 1_000.0) == remote.points_near(q, 1_000.0)
        remote.close()

    def test_server_validates_construction(self):
        with pytest.raises(ValueError):
            ArchiveShardServer(3, 3, TILE)
        with pytest.raises(ValueError):
            ArchiveShardServer(0, 1, 0.0)


class TestInferenceIdentity:
    def test_hris_bit_identical_via_remote_fleet(self, corridor_world):
        """Acceptance: full HRIS inference is bit-identical whether the
        reference search is served in-process or by the shard fleet."""
        from repro.core.system import HRIS, HRISConfig
        from repro.trajectory.resample import downsample

        servers = [ArchiveShardServer(i, 2, 600.0).start() for i in range(2)]
        addrs = [f"127.0.0.1:{s.address[1]}" for s in servers]
        try:
            remote = convert_archive(corridor_world.archive, "remote", shard_addrs=addrs)
            h_mem = HRIS(corridor_world.network, corridor_world.archive, HRISConfig())
            h_remote = HRIS(corridor_world.network, remote, HRISConfig())
            query = downsample(corridor_world.query, 240.0)
            r_mem = h_mem.infer_routes(query)
            r_remote = h_remote.infer_routes(query)
            assert [(g.route.segment_ids, g.log_score) for g in r_mem] == [
                (g.route.segment_ids, g.log_score) for g in r_remote
            ]
            remote.close()
        finally:
            for server in servers:
                server.stop()
