"""The ``served`` workload: ``repro serve --workers 2`` over a two-shard
``repro archive-serve --wal-dir`` fleet on loopback, all subprocesses of
the benchmark.

Phases, after set-up and an untimed warm-up:

1. open loop at :data:`OFFERED_QPS`, a constant: query latency and the
   generator's lag;
2. closed loop over two keep-alive connections: saturation throughput;
3. ingest tail: held-out trips added through a remote-archive client to
   the WAL-journalled fleet once the gateway has drained, spread between
   the in-process answers below.

Every served answer must then equal, bit for bit, the answer of an
in-process HRIS over the same saved world.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.core.archive import InMemoryArchive, convert_archive
from repro.datasets.io import save_scenario
from repro.datasets.synthetic import Scenario, ScenarioConfig
from repro.serve import GatewayClient
from repro.trajectory.io import trajectory_to_dict

from perfbench import checks, inproc, loadgen, stats
from perfbench.workloads import MIN_TIMED, World

#: Offered rate of the open-loop phase, queries per second: about half
#: the saturation throughput measured on a 2-CPU machine.
OFFERED_QPS = 10.0

#: Connections of both load phases.
CONNECTIONS = 2

#: Seconds to wait for a subprocess to announce its address, or to exit.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0

_ADDRESS = re.compile(r"(\d+\.\d+\.\d+\.\d+):(\d+)")


class Process:
    """A ``python -m repro.cli`` subprocess whose output is drained by a
    reader thread, so a full pipe never blocks it."""

    def __init__(self, args: Sequence[str], root: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        self.popen = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.output: List[str] = []
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.popen.stdout:
            self.output.append(line)
            self.lines.put(line)
        self.lines.put(None)

    def address(self) -> Tuple[str, int]:
        """Wait for the line announcing the listening address."""
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            try:
                line = self.lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError(f"no address announced: {''.join(self.output)}")
            if line is None:
                raise RuntimeError(f"exited before serving: {''.join(self.output)}")
            if "serving" in line:
                match = _ADDRESS.search(line)
                if match:
                    return match.group(1), int(match.group(2))

    def peak_rss_mib(self) -> float:
        """``VmHWM`` of the live process."""
        with open(f"/proc/{self.popen.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self, sig: int) -> None:
        if self.popen.poll() is None:
            self.popen.send_signal(sig)
        try:
            self.popen.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.popen.kill()
            self.popen.wait()
        self._reader.join(STOP_TIMEOUT_S)
        self.popen.stdout.close()


class Deployment:
    """Two WAL-journalled shard servers and a two-worker gateway."""

    def __init__(self, root: Path, world: Path, scratch: Path) -> None:
        self.shards: List[Process] = []
        self.gateway: Optional[Process] = None
        wal = Path(tempfile.mkdtemp(prefix="wal-", dir=scratch))
        try:
            for i in range(2):
                self.shards.append(
                    Process(
                        [
                            "archive-serve",
                            "--port", "0",
                            "--shard-index", str(i),
                            "--num-shards", "2",
                            "--wal-dir", str(wal / f"shard{i}"),
                            # Journal every mutation, but leave durability
                            # to the page cache: fsync latency on a shared
                            # disk would swamp the write path's own cost.
                            "--fsync", "off",
                        ],
                        root,
                    )
                )
            self.shard_addrs = ["%s:%d" % s.address() for s in self.shards]
            args = [
                "serve",
                "--world", str(world),
                "--port", "0",
                "--workers", "2",
                "--archive-backend", "remote",
                "--no-landmark-cache",
            ]
            for addr in self.shard_addrs:
                args += ["--shard-addr", addr]
            self.gateway = Process(args, root)
            self.host, self.port = self.gateway.address()
            deadline = time.monotonic() + START_TIMEOUT_S
            with GatewayClient(self.host, self.port) as client:
                while client.healthz().status != 200:
                    if time.monotonic() > deadline:
                        raise RuntimeError("gateway never became healthy")
                    time.sleep(0.01)
        except BaseException:
            self.stop()
            raise

    def metrics(self) -> dict:
        with GatewayClient(self.host, self.port) as client:
            reply = client.metrics()
        if reply.status != 200:
            raise RuntimeError(f"/metrics answered {reply.status}")
        return reply.payload

    def peak_rss_mib(self) -> float:
        return sum(p.peak_rss_mib() for p in [self.gateway, *self.shards])

    def stop_gateway(self) -> None:
        if self.gateway is not None:
            self.gateway.stop(signal.SIGTERM)
            self.gateway = None

    def stop(self) -> None:
        self.stop_gateway()
        for shard in self.shards:
            shard.stop(signal.SIGINT)
        self.shards = []


def _run_phases(
    host: str,
    port: int,
    open_bodies: List[bytes],
    sat_bodies: List[bytes],
    sat_seconds: float,
    sat_min: int,
):
    """The open-loop phase, a ``/metrics`` snapshot, then the saturation
    phase, on one event loop over :data:`CONNECTIONS` connections."""

    async def main():
        conns = [loadgen.HttpConnection(host, port) for __ in range(CONNECTIONS)]

        def sender(conn, bodies):
            return lambda i: conn.request("POST", "/v1/infer", bodies[i])

        try:
            opened = await loadgen.open_loop(
                [sender(c, open_bodies) for c in conns], len(open_bodies), OFFERED_QPS
            )
            # The gateway's /v1/infer latency window now holds exactly the
            # open-loop requests.
            status, body = await conns[0].request("GET", "/metrics")
            if status != 200:
                raise RuntimeError(f"/metrics answered {status}")
            mid = json.loads(body)
            saturated, wall = await loadgen.closed_loop(
                [sender(c, sat_bodies) for c in conns], len(sat_bodies), sat_seconds, sat_min
            )
        finally:
            for c in conns:
                await c.close()
        return opened, mid, saturated, wall

    return asyncio.run(main())


def _body(query) -> bytes:
    return json.dumps({"query": trajectory_to_dict(query)}).encode("utf-8")


def _save_world(world: World, directory: Path) -> None:
    save_scenario(
        Scenario(
            network=world.network,
            archive=InMemoryArchive.from_trips(world.trips),
            od_routes=[],
            route_probabilities=[],
            queries=[],
            config=ScenarioConfig(),
        ),
        directory,
    )


def _remote_client(world: World, shard_addrs: Sequence[str]):
    """A remote-archive client of the fleet whose next trip id follows the
    served trips': it first re-pushes them, which the shards find already
    applied and journal nothing for."""
    return convert_archive(
        InMemoryArchive.from_trips(world.trips), "remote", shard_addrs=shard_addrs
    )


def _add(client, trip, durations: List[float]) -> None:
    t0 = time.perf_counter()
    client.add(trip)
    durations.append(time.perf_counter() - t0)


def _answer(hris, query, result: inproc.Pass) -> None:
    """Answer one query in process, appending to ``result``."""
    part = inproc.run_pass(hris, [query], 0.0, 1)
    result.keys += part.keys
    result.choices += part.choices
    result.query_s += part.query_s
    result.failed += part.failed


def open_loop_requests(seconds: float) -> int:
    """Open-loop requests of a run: two thirds of ``seconds`` at the offered
    rate, and enough for a p90 with ten samples beyond it."""
    return max(MIN_TIMED, math.ceil(OFFERED_QPS * seconds * 2 / 3))


def run(world: World, root: Path, seconds: float, trace: bool, setup_reps: int, warm_n: int) -> inproc.Outcome:
    n_open = open_loop_requests(seconds)
    warm_q = world.queries[:warm_n]
    open_q = world.queries[warm_n : warm_n + n_open]
    sat_q = world.queries[warm_n + n_open :]
    scratch = Path(tempfile.mkdtemp(prefix="served-", dir=root / ".bench_out"))
    try:
        _save_world(world, scratch / "world")
        setups = []
        deployment = None
        try:
            for __ in range(setup_reps):
                if deployment is not None:
                    deployment.stop()
                t0 = time.perf_counter()
                deployment = Deployment(root, scratch / "world", scratch)
                setups.append(time.perf_counter() - t0)
            after_setup = deployment.metrics()
            with GatewayClient(deployment.host, deployment.port, timeout_s=120.0) as client:
                # Warm both workers through the batch endpoint, which keeps
                # its own metrics, so /v1/infer counts only timed requests.
                reply = client.infer_batch([q for q, __ in warm_q])
            if reply.status != 200:
                raise RuntimeError(f"warm-up batch answered {reply.status}")
            before = deployment.metrics()
            opened, mid, saturated, sat_wall = _run_phases(
                deployment.host,
                deployment.port,
                [_body(q) for q, __ in open_q],
                [_body(q) for q, __ in sat_q],
                seconds / 3,
                MIN_TIMED // 2,
            )
            after = deployment.metrics()
            peak_rss = deployment.peak_rss_mib()
            deployment.stop_gateway()

            # The same queries in process, over the same trips, with the
            # ingest tail's remote adds spread between them so that these
            # short timings sample the whole phase, not one moment of it.
            samples = opened + saturated
            queries = open_q[: len(opened)] + sat_q[: len(saturated)]
            hris = inproc.build(world.network, world.trips)
            inproc.warm(hris, warm_q)
            local = inproc.Pass()
            add_durations: List[float] = []
            remote = _remote_client(world, deployment.shard_addrs)
            try:
                for task in inproc.interleave(
                    [functools.partial(_answer, hris, q, local) for q in queries],
                    [functools.partial(_add, remote, t, add_durations) for t in world.held_out],
                ):
                    task()
            finally:
                remote.close()
        finally:
            if deployment is not None:
                deployment.stop()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    points = sum(len(trip.points) for trip in world.held_out)
    add_s = sum(add_durations)
    answers = [
        checks.served_keys(json.loads(s.body)) if s.status == 200 else None
        for s in samples
    ]
    failed = sum(a is None for a in answers)
    problems: List[str] = []
    for i, answer in enumerate(answers):
        if answer is not None:
            problems.extend(
                f"served query {i}: {p}"
                for p in checks.result_problems(world.network, answer, inproc.K)
            )
    problems.extend(inproc.structure_problems(world.network, local, inproc.K))
    for i, (served_answer, local_answer) in enumerate(zip(answers, local.keys)):
        if served_answer is not None and served_answer != local_answer:
            problems.append(f"served query {i} differs from the in-process answer")
    print(
        f"served: setups {', '.join('%.3f' % s for s in setups)} s; open loop "
        f"{len(opened)} requests at {OFFERED_QPS} qps; saturation "
        f"{len(saturated)} requests in {sat_wall:.2f} s; {failed} failed; "
        f"ingest tail {len(world.held_out)} trips, {points} points, "
        f"{points / add_s:.0f} points/s inside add"
    )

    if not trace:
        # A failed request counts as missing every latency limit.
        latencies = [s.latency if s.status == 200 else math.inf for s in opened]
        print(f"served: query percentiles over {len(latencies)} open-loop samples")
        metrics = {
            "setup_s": stats.median(setups),
            "query_p50_ms": stats.nearest_rank(latencies, 50.0) * 1e3,
            "query_p90_ms": stats.tail_percentile(latencies, 90.0) * 1e3,
            "queries_per_s": sum(s.status == 200 for s in saturated) / sat_wall,
            "accuracy_AL": inproc.mean_accuracy(
                world.network, [a or [] for a in answers], queries
            ),
            "peak_rss_mb": peak_rss,
        }
        return inproc.Outcome(metrics, problems, len(samples), failed)

    # Per-layer: in-process spans over the same queries, plus the
    # gateway's and the fleet's counters around the load phases.
    hris = inproc.build(world.network, world.trips)
    inproc.warm(hris, warm_q)
    traced, tracer = inproc.traced_pass(hris, queries)
    if traced.keys != local.keys:
        problems.append("traced in-process answers differ from untraced ones")
    metrics, trace_problems = inproc.layer_metrics(traced, tracer, sum(local.query_s))
    problems.extend(trace_problems)
    served_ok = len(samples) - failed
    window = mid["endpoints"]["/v1/infer"]["latency_s"]
    print(f"served: gateway percentiles over {window['count']} open-loop requests")

    def delta(*path) -> float:
        # A counter missing before the phases (an endpoint not yet used)
        # started at zero.
        a, b = after, before
        for key in path:
            a, b = a[key], b.get(key, {})
        return a - (b or 0)

    metrics.update(
        {
            "archive.add_ms_per_trip": add_s * 1e3 / len(world.held_out),
            "gateway.server_p50_ms": window["p50"] * 1e3,
            "gateway.server_p90_ms": window["p90"] * 1e3,
            "gateway.rejected": delta("endpoints", "/v1/infer", "rejected"),
            "gateway.coalesced": delta("endpoints", "/v1/infer", "coalesced"),
            "client.send_lag_p90_ms": stats.tail_percentile([s.lag for s in opened], 90.0) * 1e3,
            "wire.frames_per_query": (
                delta("archive", "wire", "frames_sent")
                + delta("archive", "wire", "frames_received")
            ) / served_ok,
            "wire.bytes_per_query": (
                delta("archive", "wire", "bytes_sent")
                + delta("archive", "wire", "bytes_received")
            ) / served_ok,
            "wal.records_appended": after_setup["archive"]["wal"]["records_appended"],
            "wal.fsyncs": after_setup["archive"]["wal"]["fsyncs"],
        }
    )
    return inproc.Outcome(metrics, problems, len(samples), failed, tracer)
