"""Golden-trace differential tests for the recognition engine.

The checked-in fixture ``tests/golden/traffic_small.json`` was
recorded from the pre-incremental engine over a deterministic
miniature Dublin scenario whose feed carries natural arrival delays.
These tests assert, for every recorded (window, step) pair and for
both the static and the self-adaptive rule suites, that

* the default engine (the window kept as arrays in a working memory),
* the reference engine (``incremental=False``: the window rebuilt from
  objects per query),

each reproduce the golden trace exactly — query times, SDE counts,
fluent intervals and CE occurrences included.  Any hot-path change
that alters recognition output fails here until the fixture is
deliberately re-recorded (``python tests/golden/record_golden.py``)
and the diff reviewed.
"""

import json

import pytest

from tests.golden.record_golden import (
    GOLDEN_PATH,
    HORIZON,
    golden_scenario,
    run_trace,
)


@pytest.fixture(scope="module")
def golden_document():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def golden_stream():
    scenario = golden_scenario()
    return scenario, scenario.generate(0, HORIZON + 600)


def _config_id(entry):
    cfg = entry["config"]
    suite = "adaptive" if cfg["adaptive"] else "static"
    return f"w{cfg['window']}-s{cfg['step']}-{suite}"


def _trace_entries():
    return json.loads(GOLDEN_PATH.read_text())["traces"]


@pytest.mark.parametrize("entry", _trace_entries(), ids=_config_id)
@pytest.mark.parametrize(
    "compiled", [True, False], ids=["compiled", "interp"]
)
@pytest.mark.parametrize("incremental", [True, False], ids=["incr", "legacy"])
def test_engine_matches_golden(golden_stream, entry, incremental, compiled):
    scenario, data = golden_stream
    trace = run_trace(
        scenario,
        data,
        **entry["config"],
        incremental=incremental,
        compiled=compiled,
    )
    assert trace == entry["queries"]


@pytest.mark.parametrize("entry", _trace_entries(), ids=_config_id)
def test_columnar_feed_matches_golden(golden_stream, entry):
    """The batch-admission path (``feed_columns`` with one
    struct-of-arrays batch) recognises exactly what the recorded
    object-feed path did."""
    from repro.core.columns import SDEColumns
    from tests.golden.record_golden import (
        HORIZON,
        build_engine,
        serialise_snapshot,
    )

    scenario, data = golden_stream
    engine = build_engine(scenario, **entry["config"])
    engine.feed_columns(SDEColumns.from_sdes(data.events, data.facts))
    trace = [serialise_snapshot(s) for s in engine.run(HORIZON)]
    assert trace == entry["queries"]


def test_fixture_covers_both_rule_suites(golden_document):
    suites = {t["config"]["adaptive"] for t in golden_document["traces"]}
    assert suites == {True, False}


def test_fixture_covers_overlapping_windows(golden_document):
    """At least one recorded pair overlaps (window > step) — otherwise
    the differential would never exercise a window that slides (rows
    kept, rows evicted, late rows sorted into place)."""
    overlaps = [
        t["config"]
        for t in golden_document["traces"]
        if t["config"]["window"] > t["config"]["step"]
    ]
    assert overlaps


def test_fixture_stream_carries_arrival_delays(golden_stream):
    """The recorded scenario must include SDEs arriving after their
    occurrence time, so the golden differential exercises delayed
    admission into a window that already slid, not just the happy
    path."""
    _, data = golden_stream
    delayed = sum(1 for ev in data.events if ev.arrival > ev.time)
    delayed += sum(1 for f in data.facts if f.arrival > f.time)
    assert delayed > 0
