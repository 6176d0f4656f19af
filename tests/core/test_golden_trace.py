"""Golden-trace differential tests for the recognition engine.

The checked-in fixture ``tests/golden/traffic_small.json`` was
recorded from the reference engine's ancestor over a deterministic
miniature Dublin scenario whose feed carries natural arrival delays.
These tests assert, for every recorded (window, step) pair and for
both the static and the self-adaptive rule suites, that

* the engine (``RTEC``: the window kept as arrays in a working
  memory, compiled rule bodies — the ``incr-compiled`` ids),
* the engine over the same definitions stripped of their compiled
  forms (``incr-interp``): every body interpreted through the lazy
  record views of the array window, which is how a user-defined rule
  reads ``traffic``, ``move`` and ``gps``,
* the reference engine (``ReferenceRTEC``: the window rebuilt from
  objects per query, every body interpreted — ``legacy-interp``),

each reproduce the golden trace exactly — query times, SDE counts,
fluent intervals and CE occurrences included.  Any hot-path change
that alters recognition output fails here until the fixture is
deliberately re-recorded (``python tests/golden/record_golden.py``)
and the diff reviewed.
"""

import json

import pytest

from repro.core import RTEC
from repro.core.reference import ReferenceRTEC
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


def _interpreting(definitions, **engine_args):
    """The engine over ``definitions`` with no compiled form on offer
    (there is no engine flag for that: a definition runs interpreted
    when it offers none)."""
    for definition in definitions:
        definition.compiled = lambda params: None
    engine = RTEC(definitions, **engine_args)
    assert not engine._compiled
    return engine


def _trace_entries():
    return json.loads(GOLDEN_PATH.read_text())["traces"]


@pytest.mark.parametrize("entry", _trace_entries(), ids=_config_id)
@pytest.mark.parametrize(
    "engine_class",
    [RTEC, _interpreting, ReferenceRTEC],
    ids=["incr-compiled", "incr-interp", "legacy-interp"],
)
def test_engine_matches_golden(golden_stream, entry, engine_class):
    scenario, data = golden_stream
    trace = run_trace(
        scenario, data, **entry["config"], engine_class=engine_class
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
