"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import dataclasses
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perfbench import checks, loadgen, spans, stats  # noqa: E402


# ---------------------------------------------------------------- percentiles


def test_nearest_rank_picks_the_ceiling_rank():
    values = list(range(10, 0, -1))  # order must not matter
    assert stats.nearest_rank(values, 50.0) == 5
    assert stats.nearest_rank(values, 90.0) == 9
    assert stats.nearest_rank(values, 91.0) == 10
    assert stats.nearest_rank(values, 100.0) == 10
    assert stats.nearest_rank([7.0], 90.0) == 7.0


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.beyond(100, 90.0) == 10
    assert stats.beyond(99, 90.0) == 9
    assert stats.min_samples(90.0) == 100
    assert stats.min_samples(50.0) == 20
    assert stats.tail_percentile(list(range(100)), 90.0) == 89
    with pytest.raises(stats.TooFewSamples):
        stats.tail_percentile(list(range(99)), 90.0)


def test_median_of_odd_and_even_samples():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5


# ---------------------------------------------------------------- spans


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent, 0)


def test_self_time_with_nested_and_back_to_back_children():
    trace = [
        _span("query", 0.0, 10.0),
        _span("a", 1.0, 3.0, 0),
        _span("b", 3.0, 6.0, 0),  # starts exactly where a ends
        _span("c", 4.0, 5.0, 2),  # nested in b
        _span("d", 5.0, 5.5, 2),  # back to back with c, still in b
    ]
    assert spans.self_times(trace) == pytest.approx([5.0, 2.0, 1.5, 1.0, 0.5])


def test_covered_merges_overlaps_and_clips():
    assert spans.covered([(0.0, 2.0), (1.0, 3.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert spans.covered([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert spans.covered([], 0.0, 10.0) == 0.0


def test_tracer_records_parents_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    tracer.query = 7
    with tracer.span("query"):  # start 0
        with tracer.span("a"):  # 1..2
            pass
        with tracer.span("b"):  # 3..6
            with tracer.span("c"):  # 4..5
                pass
    trace = tracer.finished()
    assert [(s.name, s.start, s.end, s.parent, s.query) for s in trace] == [
        ("query", 0.0, 7.0, None, 7),
        ("a", 1.0, 2.0, 0, 7),
        ("b", 3.0, 6.0, 0, 7),
        ("c", 4.0, 5.0, 2, 7),
    ]


def test_ledger_sums_to_query_time():
    trace = [
        _span("query", 0.0, 10.0),
        _span("reference", 0.0, 4.0, 0),
        _span("archive.read", 1.0, 2.0, 1),
        _span("tgi", 4.0, 9.0, 0),
        _span("yen", 5.0, 7.0, 3),
        _span("yen", 7.0, 8.0, 3),
        _span("archive.add", 10.0, 10.5),  # between queries
        _span("query", 11.0, 13.0),
        _span("nni", 11.5, 12.5, 7),
    ]
    ledger = spans.ledger(trace)
    assert ledger.queries == 2
    assert ledger.query_s == pytest.approx(12.0)
    assert ledger.self_s == pytest.approx(
        {"query": 2.0, "reference": 3.0, "archive.read": 1.0, "tgi": 2.0, "yen": 3.0, "nni": 1.0}
    )
    assert ledger.calls == {"query": 2, "reference": 1, "archive.read": 1, "tgi": 1, "yen": 2, "nni": 1}
    assert sum(ledger.self_s.values()) == pytest.approx(ledger.query_s)
    assert ledger.other_s == pytest.approx(2.0)
    assert ledger.gap_ratio == pytest.approx(0.0)
    assert ledger.outside_s == pytest.approx({"archive.add": 0.5})
    assert ledger.outside_calls == {"archive.add": 1}


def test_patched_wraps_and_restores():
    class Layer:
        def work(self, x):
            return x + 1

    module = types.ModuleType("fake")
    module.helper = lambda x: x * 2
    instance = Layer()
    original_method = Layer.__dict__["work"]
    original_helper = module.helper
    tracer = spans.Tracer()
    with spans.patched(
        tracer,
        [(Layer, "work", "layer"), (module, "helper", "helper"), (instance, "work", "inst")],
    ):
        assert instance.work(1) == 2
        assert Layer().work(2) == 3
        assert module.helper(3) == 6
    assert [s.name for s in tracer.finished()] == ["inst", "layer", "layer", "helper"]
    assert Layer.__dict__["work"] is original_method
    assert module.helper is original_helper
    assert "work" not in vars(instance)


# ---------------------------------------------------------------- open loop


class FakeClock:
    """Time advances only when the generator sleeps or a reply takes time."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    async def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_open_loop_charges_a_stall_to_the_requests_it_delays():
    clock = FakeClock()
    service = {0: 0.35}  # request 0 stalls; the rest take 0.05 s

    async def send(i):
        clock.now += service.get(i, 0.05)
        return 200, b""

    samples = asyncio.run(
        loadgen.open_loop([send], 6, 10.0, clock=clock, sleep=clock.sleep)
    )
    assert [s.due for s in samples] == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    assert [s.lag for s in samples] == pytest.approx([0.0, 0.25, 0.2, 0.15, 0.1, 0.05])
    assert [s.latency for s in samples] == pytest.approx([0.35, 0.3, 0.25, 0.2, 0.15, 0.1])


def test_open_loop_waits_for_due_time_when_early():
    clock = FakeClock()

    async def send(i):
        clock.now += 0.01
        return 200, b""

    samples = asyncio.run(
        loadgen.open_loop([send], 3, 4.0, clock=clock, sleep=clock.sleep)
    )
    assert [s.sent for s in samples] == pytest.approx([0.0, 0.25, 0.5])
    assert [s.lag for s in samples] == pytest.approx([0.0, 0.0, 0.0])
    assert [s.latency for s in samples] == pytest.approx([0.01, 0.01, 0.01])


def test_closed_loop_stops_after_its_time_and_minimum():
    clock = FakeClock()

    async def send(i):
        clock.now += 0.125
        return (200 if i % 2 else 429), b""

    samples, wall = asyncio.run(
        loadgen.closed_loop([send], 100, seconds=1.0, min_requests=3, clock=clock)
    )
    assert len(samples) == 8
    assert wall == pytest.approx(1.0)
    assert [s.status for s in samples[:2]] == [429, 200]


# ---------------------------------------------------------------- checks


class _Network:
    """Segments 1..4 chained a->b->c->d->e, and 9 going elsewhere."""

    _ends = {1: ("a", "b"), 2: ("b", "c"), 3: ("c", "d"), 4: ("d", "e"), 9: ("x", "y")}

    def segment(self, sid):
        start, end = self._ends[sid]
        return types.SimpleNamespace(start=start, end=end)


def test_result_checks():
    net = _Network()
    good = [((1, 2, 3), -0.1), ((2, 3, 4), -0.5)]
    assert checks.result_problems(net, good, 5, [(0,), (1,)]) == []
    assert checks.result_problems(net, [], 5) == ["no route"]
    assert "3 routes for k=2" in checks.result_problems(net, good + [((4,), -1.0)], 2)
    assert checks.result_problems(net, [((1, 9), 0.0)], 5) == [
        "route 0 breaks between segments 1 and 9"
    ]
    assert checks.result_problems(net, [((1,), -1.0), ((2,), -0.5)], 5) == [
        "score rises at rank 1"
    ]
    assert checks.result_problems(net, good, 5, [(0,), (0,)]) == ["duplicate global routes"]
    assert checks.repeats_a_route([((1, 2), -0.1), ((1, 2), -0.2)])
    assert not checks.repeats_a_route(good)


# ---------------------------------------------------------------- workloads


def test_workloads_use_the_repository_generators():
    from repro.eval.harness import sparse_scenario, standard_scenario

    from perfbench.workloads import SPECS

    for spec, builder in ((SPECS["sparse"], sparse_scenario), (SPECS["served"], standard_scenario)):
        expected = builder(seed=spec.world_seed, n_queries=0).config
        ours = dataclasses.replace(
            spec.config, n_archive_trips=spec.archive_trips, n_queries=0, seed=spec.world_seed
        )
        assert ours == expected


def test_interleave_spreads_each_group_evenly():
    from perfbench.inproc import interleave

    order = interleave(["c1", "c2", "c3"], ["a1", "a2", "a3", "a4", "a5", "a6"], ["s1", "s2"])
    assert sorted(order) == sorted(["c1", "c2", "c3", "a1", "a2", "a3", "a4", "a5", "a6", "s1", "s2"])
    assert order == ["a1", "c1", "a2", "s1", "a3", "c2", "a4", "a5", "s2", "c3", "a6"]
    assert interleave([], ["x"]) == ["x"]
