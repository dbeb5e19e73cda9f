#!/usr/bin/env python3
"""The repository benchmark: one workload per run.

    python3 perfbench/run.py --workload sparse --seed 1 --seconds 30 --trace 0

A run generates its workload from ``--seed``, sets the system up several
times (timing each), warms the caches with queries held out of the timed
set, measures for ``--seconds``, and checks its answers.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` the per-layer
metrics of a traced run over the same queries, and writes its spans to
``.bench_out/``.

Exit codes: 0 when every output check passed, 1 when one failed, 2 on bad
usage or when the program's sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import resource
import signal
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPS = {"sparse": 7, "dense_ingest": 7, "served": 3}

#: Timed queries generated per second of ``--seconds``: an upper bound on
#: what the run can use, with room for a much faster program.
QUERIES_PER_SECOND_CAP = {"sparse": 100, "dense_ingest": 15, "served": 40}

#: Every this many answers, one is recomputed by a reference HRIS: for
#: ``sparse`` one without engine caches or landmarks, for ``dense_ingest``
#: a fresh one over the archive's trips at that moment.
CHECK_EVERY = {"sparse": 2, "dense_ingest": 20}

#: Per-layer metrics that only the served workload can measure; in-process
#: workloads report them as 0 (no gateway, wire or write-ahead log).
SERVED_ONLY = (
    "gateway.server_p50_ms",
    "gateway.server_p90_ms",
    "gateway.rejected",
    "gateway.coalesced",
    "client.send_lag_p90_ms",
    "wire.frames_per_query",
    "wire.bytes_per_query",
    "wal.records_appended",
    "wal.fsyncs",
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_REPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def run_inprocess(name: str, world, seconds: float, trace: bool):
    from repro.core.archive import InMemoryArchive
    from repro.core.system import HRIS

    from perfbench import inproc, stats
    from perfbench.workloads import MIN_TIMED, WARM_QUERIES

    dense = name == "dense_ingest"
    warm_q, timed_q = world.queries[:WARM_QUERIES], world.queries[WARM_QUERIES:]
    # dense_ingest adds one held-out trip after each timed query; both
    # workloads then add their tail of held-out trips.
    ingest = world.held_out[: len(timed_q)] if dense else []
    tail = world.held_out[len(ingest) :]

    setups: List[float] = []
    hris = inproc.timed_setup(world.network, world.trips, setups)
    inproc.warm(hris, warm_q)
    timed = inproc.run_pass(hris, timed_q, seconds, MIN_TIMED, ingest)
    n = len(timed.keys)
    queries = timed_q[:n]
    ingest = ingest[:n]
    # The checks below build reference instances: read the peak before them.
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = inproc.structure_problems(world.network, timed, inproc.K)
    cacheless = None
    if not dense:
        cacheless = HRIS(world.network, InMemoryArchive.from_trips(world.trips), inproc.CACHELESS)
    tail_s: List[float] = []

    def check(i: int) -> None:
        reference = cacheless
        if reference is None:
            reference = inproc.build(world.network, world.trips + world.held_out[:i])
        if inproc.checks.route_keys(reference.infer_routes(queries[i][0])) != timed.keys[i]:
            problems.append(f"query {i} differs from the reference HRIS")

    def add(trip) -> None:
        t0 = time.perf_counter()
        hris.archive.add(trip)
        tail_s.append(time.perf_counter() - t0)

    # The ingest tail and the remaining set-ups are short timings: spread
    # between the untimed checks, they sample the whole phase rather than
    # one moment of the machine's load.
    for task in inproc.interleave(
        [functools.partial(check, i) for i in range(0, n, CHECK_EVERY[name])],
        [functools.partial(add, trip) for trip in tail],
        [functools.partial(inproc.timed_setup, world.network, world.trips, setups)]
        * (SETUP_REPS[name] - 1),
    ):
        task()
    points = timed.added_points + sum(len(trip.points) for trip in tail)
    add_s = sum(timed.add_s) + sum(tail_s)
    print(
        f"{name}: setups {', '.join('%.4f' % s for s in setups)} s; {n} timed "
        f"queries (p50/p90 over {len(timed.query_s)} samples); {points} points "
        f"added in {len(ingest) + len(tail)} trips, {points / add_s:.0f} points/s "
        f"inside add"
    )

    if not trace:
        metrics = {
            "setup_s": stats.median(setups),
            "query_p50_ms": stats.nearest_rank(timed.query_s, 50.0) * 1e3,
            "query_p90_ms": stats.tail_percentile(timed.query_s, 90.0) * 1e3,
            "queries_per_s": len(timed.query_s) / sum(timed.query_s),
            "accuracy_AL": inproc.mean_accuracy(world.network, timed.keys, queries),
            "peak_rss_mb": peak_rss,
        }
        return inproc.Outcome(metrics, problems, n, timed.failed)

    hris = inproc.build(world.network, world.trips)
    inproc.warm(hris, warm_q)
    traced, tracer = inproc.traced_pass(hris, queries, ingest, tail)
    if traced.keys != timed.keys:
        problems.append("traced answers differ from untraced ones")
    metrics, trace_problems = inproc.layer_metrics(traced, tracer, sum(timed.query_s))
    problems.extend(trace_problems)
    metrics.update({key: 0.0 for key in SERVED_ONLY})
    return inproc.Outcome(metrics, problems, n, timed.failed, tracer)


def main(argv=None) -> int:
    args = _parse(argv)
    # A shell starts background jobs with SIGINT ignored, and children
    # inherit that; the shard servers stop on SIGINT, so give them back the
    # default (an installed handler resets to the default across exec).
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # On SIGTERM, unwind so that the served workload stops its servers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no program sources (src/repro) or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    # Import the checkout's program and the benchmark as a package, never
    # sibling modules by bare name.
    sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
        p for p in sys.path if Path(p or ".").resolve() != Path(__file__).resolve().parent
    ]
    from perfbench import served, workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units: Dict[str, str] = {
        m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    spec = workloads.SPECS[args.workload]
    timed = max(workloads.MIN_TIMED, math.ceil(args.seconds * QUERIES_PER_SECOND_CAP[args.workload]))
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    if args.workload == "served":
        n_queries = workloads.WARM_QUERIES + served.open_loop_requests(args.seconds) + timed
        world = workloads.generate(spec, args.seed, n_queries, spec.held_out)
        outcome = served.run(
            world, ROOT, args.seconds, bool(args.trace), SETUP_REPS["served"], workloads.WARM_QUERIES
        )
    else:
        held = spec.held_out + (timed if args.workload == "dense_ingest" else 0)
        world = workloads.generate(spec, args.seed, workloads.WARM_QUERIES + timed, held)
        outcome = run_inprocess(args.workload, world, args.seconds, bool(args.trace))

    if outcome.tracer is not None:
        path = ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
        outcome.tracer.write(path)
        print(f"spans written to {path.relative_to(ROOT)}")
    if set(outcome.metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(outcome.metrics) ^ set(units))} disagree with BENCHMARK.json"
        )
    for problem in outcome.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    if len(outcome.problems) > 20:
        print(f"... and {len(outcome.problems) - 20} more failed checks")
    for key in sorted(outcome.metrics):
        print(f"{key} = {outcome.metrics[key]:.6g} {units[key]}")
    correct = not outcome.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    key: {"value": _finite(outcome.metrics[key]), "unit": units[key]}
                    for key in sorted(outcome.metrics)
                },
            }
        )
    )
    return 0 if correct else 1


def _finite(value: float) -> float:
    """JSON has no infinity: a latency percentile that falls on a failed
    request reads as 1e9."""
    return value if math.isfinite(value) else 1e9


if __name__ == "__main__":
    sys.exit(main())
