"""Trajectory archive layer: the preprocessed historical database.

The preprocessing component of Fig. 2: raw GPS logs are partitioned into
trips (stay-point removal), optionally aligned to the road network, and all
GPS points are organised in spatial indexes so the reference-trajectory
search can issue the two range queries of Sec. III-A efficiently.

The layer is split into pluggable backends behind one protocol:

* :class:`ArchiveBackend` — what the reference search, HRIS and the eval
  harness need from an archive (trip access, point iteration, the range
  queries);
* :class:`InMemoryArchive` — the classic single-R-tree implementation
  (kept available under its historical name :data:`TrajectoryArchive`);
* :class:`ShardedArchive` — points partitioned into square spatial tiles
  (a :class:`TileIndex`) with one lazily built R-tree per tile; range and
  pair queries are routed only to the overlapping tiles, so a worker
  serving a localised query set materialises a fraction of the archive's
  index;
* :class:`~repro.core.remote.RemoteShardedArchive` (in
  :mod:`repro.core.remote`) — the same tiling split across *processes*:
  each :class:`~repro.core.remote.ArchiveShardServer` keeps the tiles it
  owns in its own :class:`TileIndex` and the client fans queries out over
  a socket protocol, merging replies back into the canonical order (see
  ``docs/distributed.md``).

Every backend returns **canonically ordered** query results — point hits
sorted by ``(traj_id, index)``, near-maps keyed in ascending trajectory
id — so backends are interchangeable bit-for-bit: merging per-shard hits
and sorting yields exactly the monolithic answer (each point lives in
exactly one tile, so the merge needs no boundary heuristics).

:func:`save_archive` / :func:`load_archive` persist an archive together
with its spatial index metadata (the tile assignment), so re-opening a
sharded archive skips the re-binning pass.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Generic,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    TypeVar,
    Union,
    runtime_checkable,
)

from repro.geo.bbox import BBox
from repro.geo.point import Point
from repro.spatial.rtree import RTree
from repro.trajectory.io import iter_trajectories, save_trajectories
from repro.trajectory.model import GPSPoint, Trajectory
from repro.trajectory.staypoint import partition_trips

__all__ = [
    "ArchivePoint",
    "ArchiveBackend",
    "InMemoryArchive",
    "ShardedArchive",
    "TileIndex",
    "TrajectoryArchive",
    "ARCHIVE_BACKENDS",
    "make_archive",
    "convert_archive",
    "save_archive",
    "load_archive",
]


@dataclass(frozen=True, slots=True)
class ArchivePoint:
    """A reference into the archive: which trajectory, which observation."""

    traj_id: int
    index: int


def _ref_key(ref: ArchivePoint) -> Tuple[int, int]:
    return (ref.traj_id, ref.index)


def _group_refs(refs: Sequence[ArchivePoint]) -> Dict[int, List[int]]:
    """Canonically-ordered hits (see module docstring) to a near-map."""
    hits: Dict[int, List[int]] = {}
    for ref in refs:
        hits.setdefault(ref.traj_id, []).append(ref.index)
    return hits


@runtime_checkable
class ArchiveBackend(Protocol):
    """The archive surface the online system is written against.

    Implementations must return *canonically ordered* results: point hits
    sorted by ``(traj_id, index)`` and near-maps with ascending trajectory
    ids, each mapped to its sorted observation indices.  The ordering is
    what makes backends interchangeable bit-for-bit — downstream stages
    (reference assembly, scoring, K-GRI) see identical inputs whichever
    backend served the range queries.
    """

    def __len__(self) -> int: ...

    def __contains__(self, traj_id: int) -> bool: ...

    @property
    def num_points(self) -> int: ...

    def add(self, trajectory: Trajectory) -> int: ...

    def remove(self, traj_id: int) -> bool: ...

    def trajectory_ids(self) -> List[int]: ...

    def trajectory(self, traj_id: int) -> Trajectory: ...

    def trajectories(self) -> Iterable[Trajectory]: ...

    def point(self, ref: ArchivePoint) -> GPSPoint: ...

    def points_near(self, q: Point, radius: float) -> List[ArchivePoint]: ...

    def points_in_bbox(self, region: BBox) -> List[ArchivePoint]: ...

    def trajectories_near(self, q: Point, radius: float) -> Dict[int, List[int]]: ...

    def trajectories_near_pair(
        self, qi: Point, qi1: Point, radius: float
    ) -> Tuple[Dict[int, List[int]], Dict[int, List[int]]]: ...

    def density_per_km2(self, region: BBox) -> float: ...

    def backend_stats(self) -> Dict[str, object]: ...


class _ArchiveBase:
    """Shared trip store and derived queries of every archive backend.

    Subclasses supply the spatial substrate through three hooks:
    :meth:`_search_circles` (batched circular range queries returning
    canonically sorted hits), :meth:`points_in_bbox`, and the mutation
    notifications :meth:`_on_add` / :meth:`_on_remove`.
    """

    def __init__(self) -> None:
        self._trajectories: Dict[int, Trajectory] = {}
        self._next_id = 0

    # ---------------------------------------------------------------- builder

    def add(self, trajectory: Trajectory) -> int:
        """Add a trip, re-identifying it; returns the assigned id."""
        new_id = self._next_id
        self._next_id += 1
        traj = Trajectory(new_id, trajectory.points)
        self._trajectories[new_id] = traj
        self._on_add(traj)
        return new_id

    def remove(self, traj_id: int) -> bool:
        """Remove a trip by id (e.g. retention expiry).

        Returns:
            True if the trip existed.
        """
        traj = self._trajectories.pop(traj_id, None)
        if traj is None:
            return False
        self._on_remove(traj)
        return True

    def _restore(self, trajectory: Trajectory) -> None:
        """Re-insert a trip under its existing id (persistence/conversion).

        Raises:
            ValueError: If the id is already taken.
        """
        tid = trajectory.traj_id
        if tid in self._trajectories:
            raise ValueError(f"trajectory id {tid} already present")
        self._trajectories[tid] = trajectory
        self._next_id = max(self._next_id, tid + 1)
        self._on_add(trajectory)

    @classmethod
    def from_trips(cls, trips: Iterable[Trajectory], **kwargs) -> "_ArchiveBase":
        archive = cls(**kwargs)
        for t in trips:
            archive.add(t)
        return archive

    @classmethod
    def from_raw_logs(
        cls,
        logs: Iterable[Trajectory],
        stay_distance: float = 200.0,
        stay_time: float = 20.0 * 60.0,
        max_gap_s: float = 30.0 * 60.0,
        min_points: int = 2,
        **kwargs,
    ) -> "_ArchiveBase":
        """Preprocess raw multi-trip GPS logs: trip partition then indexing.

        This is the "Trip Partition" box of the paper's Fig. 2 applied to
        every log, with each resulting trip stored as its own archive entry.
        """
        archive = cls(**kwargs)
        for log in logs:
            for trip in partition_trips(
                log, stay_distance, stay_time, max_gap_s, min_points
            ):
                archive.add(trip)
        return archive

    # ----------------------------------------------------------------- access

    def __len__(self) -> int:
        return len(self._trajectories)

    def __contains__(self, traj_id: int) -> bool:
        return traj_id in self._trajectories

    @property
    def num_points(self) -> int:
        return sum(len(t) for t in self._trajectories.values())

    def trajectory_ids(self) -> List[int]:
        """All trip ids, ascending."""
        return sorted(self._trajectories)

    def trajectory(self, traj_id: int) -> Trajectory:
        return self._trajectories[traj_id]

    def trajectories(self) -> Iterable[Trajectory]:
        return self._trajectories.values()

    def point(self, ref: ArchivePoint) -> GPSPoint:
        return self._trajectories[ref.traj_id].points[ref.index]

    def iter_points(self) -> Iterator[Tuple[ArchivePoint, GPSPoint]]:
        """Every observation in the archive, tagged with its reference."""
        for tid, traj in self._trajectories.items():
            for i, p in enumerate(traj.points):
                yield ArchivePoint(tid, i), p

    # ---------------------------------------------------------------- queries

    def points_near(self, q: Point, radius: float) -> List[ArchivePoint]:
        """All archive observations within ``radius`` of ``q``."""
        return self._search_circles([(q, radius)])[0]

    def trajectories_near(self, q: Point, radius: float) -> Dict[int, List[int]]:
        """Trajectory ids with at least one observation within ``radius``,
        mapped to the indices of those observations (sorted)."""
        return _group_refs(self.points_near(q, radius))

    def trajectories_near_pair(
        self, qi: Point, qi1: Point, radius: float
    ) -> Tuple[Dict[int, List[int]], Dict[int, List[int]]]:
        """:meth:`trajectories_near` around both points of a query pair.

        The reference search needs the φ-neighbourhoods of ``q_i`` and
        ``q_{i+1}`` together; backends serve both range queries in one
        index pass (a single R-tree walk for the monolithic backend, one
        visit per overlapping tile for the sharded one).

        Returns:
            ``(near_i, near_j)`` — trajectory id to sorted observation
            indices, one map per query point.
        """
        hits_i, hits_j = self._search_circles([(qi, radius), (qi1, radius)])
        return _group_refs(hits_i), _group_refs(hits_j)

    def density_per_km2(self, region: BBox) -> float:
        """Archive observations per km² inside ``region``."""
        if region.area == 0.0:
            return 0.0
        return len(self.points_in_bbox(region)) / (region.area / 1_000_000.0)

    # ------------------------------------------------------------- telemetry

    def backend_stats(self) -> Dict[str, object]:
        """One JSON-able snapshot of this backend's state for monitoring.

        Every backend reports at least ``backend`` / ``n_trajectories`` /
        ``n_points``; subclasses extend it with their resident-index and
        (for the remote backend) replication-health figures.
        """
        return {
            "backend": type(self).__name__,
            "n_trajectories": len(self),
            "n_points": self.num_points,
        }

    # ------------------------------------------------------------------ hooks

    def _on_add(self, trajectory: Trajectory) -> None:
        raise NotImplementedError

    def _on_remove(self, trajectory: Trajectory) -> None:
        raise NotImplementedError

    def _search_circles(
        self, queries: Sequence[Tuple[Point, float]]
    ) -> List[List[ArchivePoint]]:
        raise NotImplementedError

    def points_in_bbox(self, region: BBox) -> List[ArchivePoint]:
        """All observations inside ``region``, canonically ordered."""
        raise NotImplementedError


class InMemoryArchive(_ArchiveBase):
    """The monolithic backend: one R-tree over every archive point.

    The index is built lazily (STR bulk load) on the first spatial query.
    Once built it is maintained *incrementally*: :meth:`add` inserts the
    new trip's points and :meth:`remove` deletes them, so steady-state
    mutations cost ``O(points · log n)`` instead of a full rebuild.
    """

    def __init__(self) -> None:
        super().__init__()
        self._index: Optional[RTree[ArchivePoint]] = None

    # ------------------------------------------------------------------ hooks

    def _on_add(self, trajectory: Trajectory) -> None:
        if self._index is None:
            return
        for i, p in enumerate(trajectory.points):
            self._index.insert_point(p.point, ArchivePoint(trajectory.traj_id, i))

    def _on_remove(self, trajectory: Trajectory) -> None:
        if self._index is None:
            return
        for i, p in enumerate(trajectory.points):
            self._index.remove_point(p.point, ArchivePoint(trajectory.traj_id, i))

    def _ensure_index(self) -> RTree[ArchivePoint]:
        if self._index is None:
            entries = [
                (BBox.from_point(p.point), ref) for ref, p in self.iter_points()
            ]
            self._index = RTree.bulk_load(entries, max_entries=32)
        return self._index

    def _search_circles(
        self, queries: Sequence[Tuple[Point, float]]
    ) -> List[List[ArchivePoint]]:
        index = self._ensure_index()
        hits = index.search_radius_many(
            queries, position=lambda ref: self.point(ref).point
        )
        return [sorted(h, key=_ref_key) for h in hits]

    def points_in_bbox(self, region: BBox) -> List[ArchivePoint]:
        return sorted(self._ensure_index().search_bbox(region), key=_ref_key)

    # ------------------------------------------------------------- accounting

    @property
    def resident_points(self) -> int:
        """Observations currently held by a materialised spatial index."""
        return self.num_points if self._index is not None else 0

    @property
    def resident_tiles(self) -> int:
        return 1 if self._index is not None else 0

    @property
    def total_tiles(self) -> int:
        return 1

    def index_nbytes(self) -> int:
        """Approximate bytes held by the materialised R-tree (0 if lazy)."""
        return self._index.approx_nbytes() if self._index is not None else 0

    def backend_stats(self) -> Dict[str, object]:
        stats = super().backend_stats()
        stats.update(
            backend="memory",
            resident_points=self.resident_points,
            index_bytes=self.index_nbytes(),
        )
        return stats


#: Historical name of the single-R-tree archive, kept as the default
#: backend so existing code (and the seed test suite) keeps working.
TrajectoryArchive = InMemoryArchive


TileKey = Tuple[int, int]
R = TypeVar("R", bound=Hashable)
V = TypeVar("V")


class TileIndex(Generic[R, V]):
    """Points binned into square tiles, one lazily built R-tree per tile.

    A point belongs to the tile ``floor(coord / tile_size)`` on each axis,
    so every point lives in exactly one tile and per-tile hits merge
    without duplicates.  :attr:`tiles` maps each occupied tile to its
    points, ``ref -> value`` in insertion order, where ``position(value)``
    is the point's coordinate.  A tile's R-tree is built on the first
    query that touches it and maintained incrementally from then on.

    :class:`ShardedArchive` (one process) and
    :class:`~repro.core.remote.ArchiveShardServer` (one shard of a fleet)
    both keep their points here; the remote client routes with the static
    helpers :meth:`tile_of` and :meth:`tile_span`.
    """

    def __init__(self, tile_size: float, position: Callable[[V], Point]) -> None:
        if tile_size <= 0.0:
            raise ValueError("tile_size must be positive")
        self.tile_size = float(tile_size)
        self._position = position
        self.tiles: Dict[TileKey, Dict[R, V]] = {}
        self._trees: Dict[TileKey, RTree[R]] = {}
        self.num_points = 0

    @staticmethod
    def tile_of(x: float, y: float, tile_size: float) -> TileKey:
        """The tile containing ``(x, y)``."""
        return (math.floor(x / tile_size), math.floor(y / tile_size))

    @staticmethod
    def tile_span(box: BBox, tile_size: float) -> Tuple[int, int, int, int]:
        """Inclusive tile ranges ``(ix0, ix1, iy0, iy1)`` that ``box`` covers."""
        return (
            math.floor(box.min_x / tile_size),
            math.floor(box.max_x / tile_size),
            math.floor(box.min_y / tile_size),
            math.floor(box.max_y / tile_size),
        )

    def key(self, x: float, y: float) -> TileKey:
        return self.tile_of(x, y, self.tile_size)

    # -------------------------------------------------------------- mutation

    def insert(self, key: TileKey, ref: R, value: V) -> bool:
        """Add a point to tile ``key``; False if ``ref`` is already there."""
        tile = self.tiles.setdefault(key, {})
        if ref in tile:
            return False
        tile[ref] = value
        self.num_points += 1
        tree = self._trees.get(key)
        if tree is not None:
            tree.insert_point(self._position(value), ref)
        return True

    def remove(self, key: TileKey, ref: R) -> bool:
        """Drop a point from tile ``key``; False if it was not there."""
        tile = self.tiles.get(key)
        if tile is None or ref not in tile:
            return False
        value = tile.pop(ref)
        self.num_points -= 1
        tree = self._trees.get(key)
        if tree is not None:
            tree.remove_point(self._position(value), ref)
        if not tile:
            del self.tiles[key]
            self._trees.pop(key, None)
        return True

    # --------------------------------------------------------------- queries

    def overlapping(self, box: BBox) -> List[TileKey]:
        """Occupied tiles whose square intersects ``box``."""
        ix0, ix1, iy0, iy1 = self.tile_span(box, self.tile_size)
        if (ix1 - ix0 + 1) * (iy1 - iy0 + 1) <= len(self.tiles):
            return [
                (ix, iy)
                for ix in range(ix0, ix1 + 1)
                for iy in range(iy0, iy1 + 1)
                if (ix, iy) in self.tiles
            ]
        return [
            key
            for key in self.tiles
            if ix0 <= key[0] <= ix1 and iy0 <= key[1] <= iy1
        ]

    def _tree(self, key: TileKey) -> RTree[R]:
        tree = self._trees.get(key)
        if tree is None:
            entries = [
                (BBox.from_point(self._position(value)), ref)
                for ref, value in self.tiles[key].items()
            ]
            tree = RTree.bulk_load(entries, max_entries=32)
            self._trees[key] = tree
        return tree

    def search_circles(self, queries: Sequence[Tuple[Point, float]]) -> List[List[R]]:
        """The refs within each ``(center, radius)`` circle, unordered.

        Every tile is walked once for all the circles that reach it.  The
        distance test is the R-tree's bbox mindist, which for a point's
        zero-area box is exactly ``Point.distance_to``.
        """
        out: List[List[R]] = [[] for __ in queries]
        per_tile: Dict[TileKey, List[int]] = {}
        for qi, (center, radius) in enumerate(queries):
            for key in self.overlapping(BBox.around(center, radius)):
                per_tile.setdefault(key, []).append(qi)
        for key, circle_ids in per_tile.items():
            sub = self._tree(key).search_radius_many([queries[qi] for qi in circle_ids])
            for qi, hits in zip(circle_ids, sub):
                out[qi].extend(hits)
        return out

    def search_bbox(self, region: BBox) -> List[R]:
        """The refs inside ``region``, unordered."""
        refs: List[R] = []
        for key in self.overlapping(region):
            refs.extend(self._tree(key).search_bbox(region))
        return refs

    # ------------------------------------------------------------ accounting

    @property
    def resident_points(self) -> int:
        """Points held by materialised per-tile R-trees."""
        return sum(len(tree) for tree in self._trees.values())

    @property
    def resident_tiles(self) -> int:
        """Tiles whose R-tree has been materialised."""
        return len(self._trees)

    def index_nbytes(self) -> int:
        """Approximate bytes held by materialised per-tile R-trees."""
        return sum(tree.approx_nbytes() for tree in self._trees.values())


class ShardedArchive(_ArchiveBase):
    """Spatially tiled backend: a :class:`TileIndex` over the archive.

    A range query is routed only to the tiles its bounding box overlaps;
    per-tile hits are merged and canonically sorted, which makes the
    answer bit-identical to :class:`InMemoryArchive` on the same trips.

    The tile *assignment* (which refs live in which tile) is built in one
    pass on first use; each tile's R-tree is materialised only when a
    query first touches it.  A fork-pool batch worker therefore holds
    indexes only for the tiles its own queries visit — the point of the
    sharding (see :meth:`prepare_for_fork`).
    """

    DEFAULT_TILE_SIZE = 1_000.0

    def __init__(self, tile_size: float = DEFAULT_TILE_SIZE) -> None:
        if tile_size <= 0.0:
            raise ValueError("tile_size must be positive")
        super().__init__()
        self._tile_size = float(tile_size)
        self._assignment: Optional[TileIndex[ArchivePoint, GPSPoint]] = None

    @property
    def tile_size(self) -> float:
        return self._tile_size

    def tile_key(self, p: Point) -> TileKey:
        """The tile containing ``p``."""
        return TileIndex.tile_of(p.x, p.y, self._tile_size)

    def _new_index(self) -> TileIndex[ArchivePoint, GPSPoint]:
        return TileIndex(self._tile_size, position=_observation_point)

    # ------------------------------------------------------------------ hooks

    def _on_add(self, trajectory: Trajectory) -> None:
        if self._assignment is None:
            return
        for i, p in enumerate(trajectory.points):
            self._assignment.insert(
                self.tile_key(p.point), ArchivePoint(trajectory.traj_id, i), p
            )

    def _on_remove(self, trajectory: Trajectory) -> None:
        if self._assignment is None:
            return
        for i, p in enumerate(trajectory.points):
            self._assignment.remove(
                self.tile_key(p.point), ArchivePoint(trajectory.traj_id, i)
            )

    # ----------------------------------------------------------- tile routing

    def _ensure_assignment(self) -> TileIndex[ArchivePoint, GPSPoint]:
        if self._assignment is None:
            index = self._new_index()
            for ref, p in self.iter_points():
                index.insert(self.tile_key(p.point), ref, p)
            self._assignment = index
        return self._assignment

    def _search_circles(
        self, queries: Sequence[Tuple[Point, float]]
    ) -> List[List[ArchivePoint]]:
        hits = self._ensure_assignment().search_circles(queries)
        # Each point lives in exactly one tile, so the merge is disjoint;
        # the set() is defensive, the sort restores the canonical order.
        return [sorted(set(h), key=_ref_key) for h in hits]

    def points_in_bbox(self, region: BBox) -> List[ArchivePoint]:
        refs = self._ensure_assignment().search_bbox(region)
        return sorted(set(refs), key=_ref_key)

    # -------------------------------------------------------- fork/accounting

    def prepare_for_fork(self) -> None:
        """Build the tile assignment (cheap, one pass) without any R-tree.

        Called by :meth:`~repro.core.system.HRIS.infer_routes_batch` right
        before the worker pool forks: every worker then shares the binning
        via copy-on-write and materialises per-tile indexes only for the
        tiles its own queries touch.
        """
        self._ensure_assignment()

    @property
    def resident_points(self) -> int:
        """Observations held by materialised per-tile R-trees."""
        return self._assignment.resident_points if self._assignment is not None else 0

    @property
    def resident_tiles(self) -> int:
        """Tiles whose R-tree has been materialised."""
        return self._assignment.resident_tiles if self._assignment is not None else 0

    @property
    def total_tiles(self) -> int:
        """Occupied tiles (assignment is built on demand to count them)."""
        return len(self._ensure_assignment().tiles)

    def index_nbytes(self) -> int:
        """Approximate bytes held by materialised per-tile R-trees.

        The tile assignment is excluded: it is built once pre-fork and
        shared copy-on-write across batch workers, whereas the per-tile
        trees are each worker's private resident set.
        """
        return self._assignment.index_nbytes() if self._assignment is not None else 0

    def backend_stats(self) -> Dict[str, object]:
        stats = super().backend_stats()
        stats.update(
            backend="sharded",
            tile_size=self.tile_size,
            resident_points=self.resident_points,
            resident_tiles=self.resident_tiles,
            total_tiles=self.total_tiles,
            index_bytes=self.index_nbytes(),
        )
        return stats


def _observation_point(p: GPSPoint) -> Point:
    return p.point


#: Backend registry: CLI/IO names accepted by :func:`make_archive`.
ARCHIVE_BACKENDS = ("memory", "sharded", "remote")


def make_archive(
    backend: str = "memory",
    tile_size: Optional[float] = None,
    shard_addrs: Optional[Sequence[str]] = None,
    replication: Optional[int] = None,
    pool_size: Optional[int] = None,
) -> _ArchiveBase:
    """Construct an empty archive of the requested backend.

    Args:
        backend: ``"memory"`` (single R-tree), ``"sharded"`` (tiled) or
            ``"remote"`` (tiles served by shard-server processes, see
            :mod:`repro.core.remote`).
        tile_size: Tile side in metres for the sharded backend (defaults
            to :attr:`ShardedArchive.DEFAULT_TILE_SIZE`); for the remote
            backend it is validated against the servers' handshake;
            ignored for ``"memory"``.
        shard_addrs: ``host:port`` shard-server addresses; required by
            (and only meaningful for) the remote backend.  Several
            servers claiming the same shard index form that shard's
            replica set.
        replication: Optional replicas-per-shard count to enforce on the
            remote backend's handshake (remote only).
        pool_size: Optional persistent connections kept per replica
            (remote only; default 1).  Concurrent callers — the serving
            gateway's worker pool — raise it to multiplex in-flight
            requests per replica instead of serialising on one socket.

    Raises:
        ValueError: On an unknown backend name, a remote backend without
            shard addresses, or ``replication``/``pool_size`` with a
            local backend.
    """
    if backend != "remote" and pool_size is not None:
        raise ValueError("pool_size only applies to the remote backend")
    if backend != "remote" and replication is not None:
        raise ValueError("replication only applies to the remote backend")
    if backend == "memory":
        return InMemoryArchive()
    if backend == "sharded":
        return ShardedArchive(
            tile_size if tile_size is not None else ShardedArchive.DEFAULT_TILE_SIZE
        )
    if backend == "remote":
        if not shard_addrs:
            raise ValueError(
                "the remote backend needs at least one shard address "
                "(shard_addrs=[...] / --shard-addr host:port)"
            )
        from repro.core.remote import RemoteShardedArchive

        return RemoteShardedArchive(
            shard_addrs,
            expected_tile_size=tile_size,
            replication=replication,
            pool_size=pool_size if pool_size is not None else 1,
        )
    raise ValueError(
        f"unknown archive backend {backend!r}; expected one of {ARCHIVE_BACKENDS}"
    )


def convert_archive(
    source: _ArchiveBase,
    backend: str,
    tile_size: Optional[float] = None,
    shard_addrs: Optional[Sequence[str]] = None,
    replication: Optional[int] = None,
) -> _ArchiveBase:
    """Rebuild ``source`` under another backend, *preserving trip ids*.

    Identical ids mean identical reference search output (references carry
    ``source_ids``), so a converted archive is a drop-in replacement.
    Converting to ``"remote"`` pushes every observation to the owning
    shard servers (idempotently, so pre-seeded fleets are fine); with
    replicated shards every replica receives the push.
    """
    out = make_archive(backend, tile_size, shard_addrs, replication)
    for tid in sorted(source._trajectories):
        out._restore(source._trajectories[tid])
    out._next_id = max(out._next_id, source._next_id)
    return out


# ------------------------------------------------------------------ persistence

_MANIFEST_FILE = "manifest.json"
_TRIPS_FILE = "trips.jsonl"
_TILES_FILE = "tiles.json"
_ARCHIVE_FORMAT = "repro-archive-v1"


def _stash_path(directory: Path) -> Path:
    """Where a :func:`save_archive` replacement stashes the old archive."""
    return directory.parent / (directory.name + ".prev.tmp")


def _recover_interrupted_save(directory: Path) -> None:
    """Close the one crash window of an atomic archive replacement.

    :func:`save_archive` replaces an existing archive with two renames:
    target → ``<name>.prev.tmp``, then temp → target.  A crash between
    them leaves the target missing but the previous archive intact under
    the stash name; putting it back restores the pre-save state.  Both
    the next save and :func:`load_archive` call this first.
    """
    stash = _stash_path(directory)
    if stash.is_dir() and not directory.exists():
        os.rename(stash, directory)


def save_archive(archive: _ArchiveBase, directory: Union[str, Path]) -> Path:
    """Persist an archive (trips + index metadata) to a directory.

    Layout::

        manifest.json   backend, counters, tile size
        trips.jsonl     one trajectory per line (ids preserved)
        tiles.json      tile -> [[traj_id, index], ...]   (sharded only)

    The tile file is the *persistent spatial index*: reloading a sharded
    archive restores the binning without re-scanning every observation.

    The write is **crash-safe**: every artefact is written into a
    temporary sibling directory first and the target is replaced by
    atomic renames only once the temp copy is complete, so a crash (or
    an exception) mid-save can never leave a half-written or corrupted
    archive at ``directory`` — the previous contents survive untouched.

    Returns:
        The directory path.
    """
    directory = Path(directory)
    directory.parent.mkdir(parents=True, exist_ok=True)
    _recover_interrupted_save(directory)
    staging = directory.parent / (directory.name + ".saving.tmp")
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()
    try:
        trips = [archive._trajectories[tid] for tid in sorted(archive._trajectories)]
        save_trajectories(trips, staging / _TRIPS_FILE)
        manifest: Dict[str, object] = {
            "format": _ARCHIVE_FORMAT,
            "backend": "sharded" if isinstance(archive, ShardedArchive) else "memory",
            "next_id": archive._next_id,
            "n_trajectories": len(archive),
            "n_points": archive.num_points,
        }
        if isinstance(archive, ShardedArchive):
            manifest["tile_size"] = archive.tile_size
            assignment = archive._ensure_assignment()
            tiles = {
                f"{ix},{iy}": [[ref.traj_id, ref.index] for ref in refs]
                for (ix, iy), refs in sorted(assignment.tiles.items())
            }
            with open(staging / _TILES_FILE, "w", encoding="utf-8") as f:
                json.dump(tiles, f)
        with open(staging / _MANIFEST_FILE, "w", encoding="utf-8") as f:
            json.dump(manifest, f, indent=2)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if directory.exists():
        stash = _stash_path(directory)
        if stash.exists():
            shutil.rmtree(stash)
        os.rename(directory, stash)
        os.rename(staging, directory)  # commit point for the replacement
        shutil.rmtree(stash)
    else:
        os.rename(staging, directory)
    return directory


def load_archive(
    directory: Union[str, Path],
    backend: Optional[str] = None,
    tile_size: Optional[float] = None,
) -> _ArchiveBase:
    """Reload an archive saved by :func:`save_archive`.

    Args:
        directory: The archive directory.
        backend: Override the saved backend (``None`` keeps it).
        tile_size: Override the saved tile size (``None`` keeps it).  The
            persisted tile index is reused only when the effective backend
            and tile size match the saved ones; otherwise points are
            re-binned lazily.

    Raises:
        FileNotFoundError: If the directory or an artefact is missing.
        ValueError: On a manifest format/version mismatch (raised up
            front, naming the found version, before any trip parsing) or
            corrupt tile indexes.
    """
    directory = Path(directory)
    _recover_interrupted_save(directory)
    with open(directory / _MANIFEST_FILE, "r", encoding="utf-8") as f:
        manifest = json.load(f)
    found = manifest.get("format")
    if found is None:
        raise ValueError(
            f"{directory / _MANIFEST_FILE} is not an archive manifest: "
            "it has no 'format' field"
        )
    if found != _ARCHIVE_FORMAT:
        raise ValueError(
            f"unsupported archive format {found!r}: this build reads "
            f"{_ARCHIVE_FORMAT!r} (re-save the archive with a matching "
            "version of save_archive)"
        )

    saved_backend = manifest.get("backend", "memory")
    effective_backend = backend if backend is not None else saved_backend
    saved_tile = manifest.get("tile_size")
    effective_tile = tile_size if tile_size is not None else saved_tile

    archive = make_archive(effective_backend, effective_tile)
    for traj in iter_trajectories(directory / _TRIPS_FILE):
        archive._restore(traj)
    archive._next_id = max(archive._next_id, int(manifest.get("next_id", 0)))
    if len(archive) != int(manifest.get("n_trajectories", len(archive))):
        raise ValueError("archive manifest/trip count mismatch")

    tiles_path = directory / _TILES_FILE
    if (
        isinstance(archive, ShardedArchive)
        and effective_backend == saved_backend
        and saved_tile is not None
        and archive.tile_size == float(saved_tile)
        and tiles_path.exists()
    ):
        with open(tiles_path, "r", encoding="utf-8") as f:
            raw = json.load(f)
        index = archive._new_index()
        for key, refs in raw.items():
            ix, iy = (int(v) for v in key.split(","))
            for tid, idx in refs:
                ref = ArchivePoint(int(tid), int(idx))
                try:
                    index.insert((ix, iy), ref, archive.point(ref))
                except (KeyError, IndexError):
                    raise ValueError(f"persisted tile index names unknown {ref}")
        if index.num_points != archive.num_points:
            raise ValueError("persisted tile index does not cover the archive")
        archive._assignment = index
    return archive
