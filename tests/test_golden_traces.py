"""Every algorithm and phase function reproduces its golden trace bit for bit.

The traces in ``golden_traces.json`` were captured by ``golden_capture.py``;
see its docstring before regenerating them.
"""

import json

import pytest

from golden_capture import (
    GOLDEN_PATH,
    PHASE_INSTANCES,
    instances,
    phase_record,
    run_cases,
    trace_record,
)

GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
NAMED = instances()


def test_golden_grid_is_complete():
    pinned = [
        (t["instance"], t["algorithm"], t["budget"], t["params"]) for t in GOLDEN["traces"]
    ]
    assert pinned == run_cases(NAMED)
    assert [p["instance"] for p in GOLDEN["phases"]] == list(PHASE_INSTANCES)


@pytest.mark.parametrize("name", sorted(NAMED))
def test_run_traces_match(name):
    pinned = [t for t in GOLDEN["traces"] if t["instance"] == name]
    assert pinned
    for golden in pinned:
        alg, budget, params = golden["algorithm"], golden["budget"], golden["params"]
        got = trace_record(NAMED[name], name, alg, budget, params)
        assert got == golden, f"{name} {alg} T={budget} {params}"


@pytest.mark.parametrize("name", PHASE_INSTANCES)
def test_phase_traces_match(name):
    golden = next(p for p in GOLDEN["phases"] if p["instance"] == name)
    assert phase_record(NAMED[name], name) == golden
