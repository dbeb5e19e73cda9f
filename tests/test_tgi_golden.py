"""Golden routes: HRIS answers in two TGI-heavy worlds, frozen to the bit.

Most query pairs of these worlds go to TGI, whose K-shortest-path search
meets exactly tied path costs on the majority of its calls, so any change
to tie-breaking in ``repro.roadnet.ksp`` (or anywhere else on the query
path) shows up here as a changed route key or score.  The identity gates
of the throughput benchmark cannot see such a change: every configuration
they compare runs the same search code.

Regenerate ``tests/data/tgi_golden.json`` only for an intended change of
answers::

    PYTHONPATH=src python tests/test_tgi_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.core.system import HRIS
from repro.eval.harness import sparse_scenario, standard_scenario
from repro.trajectory.resample import downsample

GOLDEN = Path(__file__).resolve().parent / "data" / "tgi_golden.json"

#: World name -> (scenario factory, query sampling interval in seconds).
WORLDS = {
    "standard_seed7_300s": (lambda: standard_scenario(seed=7, n_queries=20), 300.0),
    "sparse_seed13_600s": (lambda: sparse_scenario(seed=13, n_queries=20), 600.0),
}


def world_answers(name):
    """Per query of the world: ``[[segment ids, log score], ...]`` of the
    default-config top-K routes."""
    make, interval = WORLDS[name]
    scenario = make()
    hris = HRIS(scenario.network, scenario.archive)
    answers = []
    for case in scenario.queries:
        query = downsample(case.query, interval)
        if len(query) < 2:
            continue
        answers.append(
            [[list(g.route.segment_ids), g.log_score] for g in hris.infer_routes(query)]
        )
    return answers


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_routes_match_golden(golden, name):
    expected = golden[name]
    assert len(expected) >= 15
    got = world_answers(name)
    assert len(got) == len(expected)
    for i, (g, e) in enumerate(zip(got, expected)):
        assert g == e, f"{name} query {i} changed"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({name: world_answers(name) for name in sorted(WORLDS)}) + "\n"
    )
    print(f"wrote {GOLDEN}")
