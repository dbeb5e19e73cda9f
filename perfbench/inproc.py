"""Timed and traced HRIS passes inside the benchmark process.

Used by the ``sparse`` and ``dense_ingest`` workloads, and by ``served``
for the in-process answers its served answers must equal.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import repro.core.system as system_module
import repro.core.traverse_graph as traverse_graph_module
from repro.core.archive import InMemoryArchive
from repro.core.nni import NearestNeighborInference
from repro.core.reference import ReferenceSearch
from repro.core.system import HRIS, HRISConfig
from repro.core.traverse_graph import TraverseGraphInference
from repro.eval.metrics import route_accuracy
from repro.roadnet.network import RoadNetwork
from repro.roadnet.route import Route
from repro.trajectory.model import Trajectory

from perfbench import checks, spans

#: HRIS with every engine cache and the ALT landmarks off: the reference
#: the cached engine's answers must equal.
CACHELESS = HRISConfig(
    n_landmarks=0,
    route_cache_size=0,
    candidate_cache_size=0,
    support_cache_size=0,
    oracle_cache_size=0,
)

Query = Tuple[Trajectory, Route]

#: Routes per answer: the default K of the global inference (Table II).
K = HRISConfig().k3


@dataclass
class Outcome:
    """A workload run's metrics, failed output checks, and request counts."""

    metrics: Dict[str, float]
    problems: List[str]
    attempted: int
    failed: int
    tracer: Optional[spans.Tracer] = None


def build(network: RoadNetwork, trips: Sequence[Trajectory], config: HRISConfig = HRISConfig()) -> HRIS:
    """Archive backend from ``trips`` (ids follow their order), then HRIS."""
    archive = InMemoryArchive.from_trips(trips)
    # The R-tree is bulk-loaded on the first range query: run one here so
    # that its construction is counted as set-up, not as warm-up.
    archive.points_near(trips[0].points[0].point, 0.0)
    return HRIS(network, archive, config)


def timed_setup(network: RoadNetwork, trips: Sequence[Trajectory], durations: List[float]) -> HRIS:
    """:func:`build`, appending its duration to ``durations``."""
    # Start from an empty collector generation, so a set-up pays for the
    # garbage it makes and none for what came before.
    gc.collect()
    t0 = time.perf_counter()
    hris = build(network, trips)
    durations.append(time.perf_counter() - t0)
    return hris


def warm(hris: HRIS, queries: Sequence[Query]) -> None:
    for query, __ in queries:
        hris.infer_routes(query)


@dataclass
class Pass:
    """What one pass over the timed queries produced."""

    keys: List[List[checks.RouteKey]] = field(default_factory=list)
    choices: List[List[Tuple[int, ...]]] = field(default_factory=list)
    query_s: List[float] = field(default_factory=list)
    add_s: List[float] = field(default_factory=list)
    added_points: int = 0
    failed: int = 0
    details: list = field(default_factory=list)  # InferenceDetail, traced passes only


def interleave(*groups: Sequence) -> list:
    """The items of all groups in one list, each group spread evenly over it."""
    placed = [
        ((k + 0.5) / len(group), g, k)
        for g, group in enumerate(groups)
        for k in range(len(group))
    ]
    return [groups[g][k] for __, g, k in sorted(placed)]


def run_pass(
    hris: HRIS,
    queries: Sequence[Query],
    seconds: float,
    min_queries: int,
    ingest: Sequence[Trajectory] = (),
    tracer: Optional[spans.Tracer] = None,
) -> Pass:
    """Run queries in order until ``min_queries`` are done and ``seconds``
    of query (and add) time have been spent, or the queries run out.

    With ``ingest``, trip ``i`` is added to the archive after query ``i``.
    With a ``tracer``, each query runs inside a :data:`spans.QUERY` span
    and its :class:`~repro.core.system.InferenceDetail` is kept.
    """
    out = Pass()
    busy = 0.0
    archive = hris.archive
    for i, (query, __) in enumerate(queries):
        if i >= min_queries and busy >= seconds:
            break
        try:
            if tracer is None:
                t0 = time.perf_counter()
                routes = hris.infer_routes(query)
                dt = time.perf_counter() - t0
            else:
                tracer.query = i
                t0 = time.perf_counter()
                with tracer.span(spans.QUERY):
                    routes, detail = hris.infer_routes_with_details(query)
                dt = time.perf_counter() - t0
                out.details.append(detail)
        except (RuntimeError, ValueError) as exc:
            print(f"query {i} failed: {exc}")
            out.failed += 1
            out.keys.append([])
            out.choices.append([])
            continue
        out.query_s.append(dt)
        out.keys.append(checks.route_keys(routes))
        out.choices.append(checks.choices(routes))
        busy += dt
        if i < len(ingest):
            trip = ingest[i]
            t0 = time.perf_counter()
            archive.add(trip)
            dt = time.perf_counter() - t0
            out.add_s.append(dt)
            out.added_points += len(trip.points)
            busy += dt
    return out


def layer_targets(archive) -> List[Tuple[object, str, str]]:
    """The layer entry points the traced pass wraps, as (owner, attribute,
    span name).  Module functions are wrapped where their caller looks
    them up."""
    return [
        (ReferenceSearch, "search", "reference"),
        (archive, "trajectories_near_pair", "archive.read"),
        (archive, "trajectories_near", "archive.read"),
        (archive, "points_near", "archive.read"),
        (archive, "points_in_bbox", "archive.read"),
        (archive, "add", "archive.add"),
        (TraverseGraphInference, "infer", "tgi"),
        (traverse_graph_module, "yen_k_shortest_paths", "yen"),
        (NearestNeighborInference, "infer", "nni"),
        (system_module, "compute_segment_support", "scoring"),
        (system_module, "score_local_routes", "scoring"),
        (system_module, "k_gri", "kgri"),
    ]


def traced_pass(
    hris: HRIS,
    queries: Sequence[Query],
    ingest: Sequence[Trajectory] = (),
    tail: Sequence[Trajectory] = (),
) -> Tuple[Pass, spans.Tracer]:
    """Every query of ``queries`` (no time limit), then the ``tail`` trips'
    adds, with layer spans on."""
    tracer = spans.Tracer()
    with spans.patched(tracer, layer_targets(hris.archive)):
        result = run_pass(hris, queries, 0.0, len(queries), ingest, tracer)
        for trip in tail:
            hris.archive.add(trip)
    return result, tracer


#: Span names of the query ledger's layers (besides :data:`spans.QUERY`,
#: whose self time is the remainder).
LAYERS = ("reference", "archive.read", "tgi", "yen", "nni", "scoring", "kgri")


def layer_metrics(
    result: Pass, tracer: spans.Tracer, untraced_query_s: float
) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of a traced pass, and problems with the trace."""
    ledger = spans.ledger(tracer.finished())
    n = ledger.queries
    problems = []
    if n != len(result.query_s):
        problems.append(f"{n} query spans for {len(result.query_s)} queries")
    if ledger.gap_ratio > 0.05:
        problems.append(f"layer self times miss query time by {ledger.gap_ratio:.1%}")
    unknown = set(ledger.self_s) - set(LAYERS) - {spans.QUERY}
    if unknown:
        problems.append(f"spans outside the ledger: {sorted(unknown)}")
    ms = 1e3 / n
    m: Dict[str, float] = {}
    m["reference.ms_per_query"] = ledger.self_s.get("reference", 0.0) * ms
    m["archive.read_ms_per_query"] = ledger.self_s.get("archive.read", 0.0) * ms
    adds = ledger.outside_calls.get("archive.add", 0)
    m["archive.add_ms_per_trip"] = ledger.outside_s.get("archive.add", 0.0) * 1e3 / adds if adds else 0.0
    for layer in ("tgi", "yen", "nni"):
        m[f"{layer}.ms_per_query"] = ledger.self_s.get(layer, 0.0) * ms
        m[f"{layer}.calls_per_query"] = ledger.calls.get(layer, 0) / n
    m["scoring.ms_per_query"] = ledger.self_s.get("scoring", 0.0) * ms
    m["kgri.ms_per_query"] = ledger.self_s.get("kgri", 0.0) * ms
    m["kgri.repeated_route_share"] = sum(
        checks.repeats_a_route(keys) for keys in result.keys
    ) / len(result.keys)
    m["other.ms_per_query"] = ledger.other_s * ms
    m["trace.query_ms_per_query"] = ledger.query_s * ms
    m["trace.ledger_gap_ratio"] = ledger.gap_ratio
    m["trace.overhead_ratio"] = ledger.query_s / untraced_query_s

    pairs = [p for d in result.details for p in d.pairs]
    refs = sum(p.n_references for p in pairs)
    m["reference.refs_per_pair"] = refs / len(pairs)
    m["reference.spliced_share"] = sum(p.n_spliced for p in pairs) / refs if refs else 0.0
    for method in ("tgi", "nni", "fallback"):
        m[f"hybrid.{method}_share"] = sum(p.method == method for p in pairs) / len(pairs)

    engines = [d.engine for d in result.details]
    m["engine.settled_per_query"] = sum(e.settled_nodes for e in engines) / n
    for cache in ("route_cache", "candidate_cache", "support_cache", "oracle"):
        hits = sum(getattr(e, cache).hits for e in engines)
        lookups = hits + sum(getattr(e, cache).misses for e in engines)
        m[f"engine.{cache}_hit_ratio"] = hits / lookups if lookups else 0.0
    return m, problems


def mean_accuracy(network: RoadNetwork, keys: Sequence[List[checks.RouteKey]], queries: Sequence[Query]) -> float:
    """Mean A_L of each answer's top-1 route (0 for an empty answer)."""
    total = 0.0
    for answer, (__, truth) in zip(keys, queries):
        if answer:
            total += route_accuracy(network, truth, Route.of(answer[0][0]))
    return total / len(keys)


def structure_problems(network: RoadNetwork, result: Pass, k: int) -> List[str]:
    out = []
    for i, (answer, choices) in enumerate(zip(result.keys, result.choices)):
        out.extend(
            f"query {i}: {p}"
            for p in checks.result_problems(network, answer, k, choices)
        )
    return out
