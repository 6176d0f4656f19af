"""What a query costs, counted: the bus-side rules do work in
proportion to what arrived, not to the window.

Byte-identical output is the parity suites' business; these tests
count the work behind it on the golden miniature city — its own
stream (in order, arrivals jittered and lagged as the simulators do)
and a storm-like twin with half the bus SDEs delayed by minutes:

* ``close/4`` is decided once per admitted ``gps`` row per engine, by
  the array join — never by the scalar lookup;
* a row's evaluation columns are filled once, when it is first read
  after admission — the window is not re-encoded per query — and no
  ``move``, ``gps`` or ``traffic`` record is built at all: what the
  default path materialises is ``crowd`` answers, and under
  ``compiled=False`` every admitted row, exactly once over its life;
* a compiled definition's body runs once per query, and no restricted
  context is built for it;
* a quiet query — nothing late, nothing changed upstream — freezes no
  payload to publish that nothing changed.
"""

import numpy as np
import pytest

import repro.core.incremental as incremental
from repro.core import RTEC, Event
from repro.core.columns import EventColumns, FactColumns, SDEColumns
from repro.core.rules import RuleContext
from repro.core.traffic import (
    Agree,
    BusCongestion,
    DelayIncrease,
    Disagree,
    ScatsCongestion,
    ScatsIntersectionCongestion,
    ScatsTopology,
    SourceDisagreement,
    build_traffic_definitions,
)

from tests.golden.record_golden import HORIZON, golden_params, golden_scenario

WINDOW, STEP = 1200, 300
MIRRORED = ("traffic", "move", "gps")


class CountingTopology(ScatsTopology):
    """Counts the positions each form of ``close/4`` is asked about."""

    def __init__(self, topology):
        super().__init__(
            [topology.get(int_id) for int_id in topology.ids()],
            close_radius_m=topology.close_radius_m,
        )
        self.joined = 0
        self.scalar = 0

    def close_join(self, lon, lat):
        self.joined += len(lon)
        return super().close_join(lon, lat)

    def intersections_close_to(self, lon, lat):
        self.scalar += 1
        return super().intersections_close_to(lon, lat)


def _with_arrivals(batch, arrivals_of):
    """``batch`` with every block's arrivals replaced."""
    return SDEColumns(
        [
            EventColumns(
                b.type, b.times, arrivals_of(b, b.type), fields=b.fields
            )
            for b in batch.events
        ],
        [
            FactColumns(
                b.name, b.times, arrivals_of(b, b.name),
                key_columns=b.key_columns, value_fields=b.value_fields,
            )
            for b in batch.facts
        ],
    )


@pytest.fixture(scope="module")
def streams():
    scenario = golden_scenario()
    golden = scenario.generate(0, HORIZON + 600).columns.in_stream_order()
    rng = np.random.default_rng(5)

    def delayed(block, name):
        # Half of the move and of the gps rows, independently, land
        # 0-400 s late: the halves of a report part ways.
        if name == "traffic":
            return block.arrivals
        lag = rng.integers(0, 400, len(block)) * rng.integers(0, 2, len(block))
        return block.arrivals + lag

    return scenario, {
        "golden": golden,
        "delayed": _with_arrivals(golden, delayed),
        "punctual": _with_arrivals(golden, lambda block, name: block.times),
    }


def _run(definitions, batch, instrument=lambda engine: None, **engine_args):
    """Feed ``batch`` to a default engine over ``definitions``; returns
    it with its snapshots and the number of rule contexts built."""
    engine = RTEC(
        definitions, window=WINDOW, step=STEP, params=golden_params(),
        **engine_args,
    )
    instrument(engine)
    engine.feed_columns(batch)
    built = []
    original = RuleContext.__init__

    def counting_init(self, **kwargs):
        built.append(kwargs["window_start"])
        original(self, **kwargs)

    RuleContext.__init__ = counting_init
    try:
        snapshots = list(engine.run(HORIZON))
    finally:
        RuleContext.__init__ = original
    return engine, snapshots, len(built)


def _admitted(batch, name):
    """Rows of one block that arrive by the last query."""
    block = batch.event_block(name) or batch.fact_block(name)
    return int((block.arrivals <= HORIZON).sum())


@pytest.mark.parametrize("stream", ["golden", "delayed"])
def test_close_is_decided_once_per_admitted_gps_row(streams, stream):
    scenario, batches = streams
    topology = CountingTopology(scenario.topology)
    _, snapshots, _ = _run(
        build_traffic_definitions(topology, adaptive=True), batches[stream]
    )
    assert sum(s.rows_skipped_horizon for s in snapshots) == 0
    assert topology.joined == _admitted(batches[stream], "gps") > 0
    assert sum(s.close_rows_decided for s in snapshots) == topology.joined
    # Four definitions ask for the join; none asks point by point.
    assert topology.scalar == 0


@pytest.mark.parametrize("stream", ["golden", "delayed"])
def test_records_are_encoded_once_not_per_query(streams, stream):
    scenario, batches = streams
    _, snapshots, _ = _run(
        build_traffic_definitions(scenario.topology, adaptive=True),
        batches[stream],
    )
    admitted = sum(_admitted(batches[stream], name) for name in MIRRORED)
    encoded = sum(s.mirror_rows_encoded for s in snapshots)
    assert encoded == admitted
    # Re-encoding the window's events at every query that saw an
    # out-of-order arrival — every query, on either stream — encodes
    # more rows than that, without the gps facts counted here.
    assert sum(s.n_events for s in snapshots) > encoded


def _with_crowd(batch):
    """``batch`` plus a few ``crowd`` answers, some of them late."""
    answer = {"intersection": "I0", "lon": 0.0, "lat": 0.0, "value": "negative"}
    answers = SDEColumns.from_sdes([
        Event("crowd", t, answer, t + lag)
        for t, lag in ((400, 0), (900, 350), (1500, 20), (2100, 700))
    ])
    return SDEColumns(batch.events + answers.events, batch.facts)


@pytest.mark.parametrize("stream", ["golden", "delayed"])
def test_the_default_path_materialises_crowd_rows_only(streams, stream):
    scenario, batches = streams
    batch = _with_crowd(batches[stream])
    engine, snapshots, _ = _run(
        build_traffic_definitions(scenario.topology, adaptive=True), batch
    )
    admitted = {
        name: _admitted(batch, name) for name in MIRRORED + ("crowd",)
    }
    assert sum(s.rows_skipped_horizon for s in snapshots) == 0
    # What the parent counted as materialised is what is admitted...
    assert sum(s.rows_admitted for s in snapshots) == sum(admitted.values())
    # ...and the only records built are crowd answers: every rule body
    # over the raw SDEs reads arrays, and a dirty grounding is named by
    # its code.  (A late row of a partitioned *interpreted* definition
    # would cost one representative; the default rule set has none
    # over these three inputs.)
    built = {
        key: store.rows_materialised
        for key, store in engine._wm._stores.items()
    }
    assert built == {
        ("event", "traffic"): 0,
        ("event", "move"): 0,
        ("fact", "gps"): 0,
        ("event", "crowd"): admitted["crowd"],
    }
    assert sum(s.rows_materialised for s in snapshots) == admitted["crowd"] > 0


@pytest.mark.parametrize("stream", ["golden", "delayed"])
def test_the_interpreter_materialises_each_row_exactly_once(streams, stream):
    scenario, batches = streams
    batch = _with_crowd(batches[stream])
    definitions = build_traffic_definitions(scenario.topology, adaptive=True)
    engine, snapshots, _ = _run(definitions, batch, compiled=False)
    admitted = sum(s.rows_admitted for s in snapshots)
    assert admitted == sum(
        _admitted(batch, name) for name in MIRRORED + ("crowd",)
    )
    assert sum(s.rows_materialised for s in snapshots) == admitted
    # Each of them was built once: what a store holds at the end are
    # the very records it hands out again.
    for store in engine._wm._stores.values():
        before = store.rows_materialised
        assert all(
            a is b for a, b in zip(store.records(), store.records())
        )
        assert store.rows_materialised == before
    # Same recognition either way.
    _, default, _ = _run(definitions, batch)
    assert [s.occurrences for s in snapshots] == [
        s.occurrences for s in default
    ]
    assert [s.fluents for s in snapshots] == [s.fluents for s in default]


def test_compiled_bodies_run_once_per_query_without_contexts(streams):
    """Every point-deriving definition below is compiled: a query then
    builds its one full-window context and nothing else, however many
    late SDEs cut the window into bands."""
    scenario, batches = streams
    topology = scenario.topology
    definitions = [
        ScatsCongestion(),
        ScatsIntersectionCongestion(topology),
        DelayIncrease(),
        Disagree(topology),
        Agree(topology),
        BusCongestion(topology),
        SourceDisagreement(topology),
    ]
    calls = {}

    def count_derives(engine):
        for name, rule in engine._compiled.items():
            calls[name] = 0

            def counted(ctx, selection=None, name=name, derive=rule.derive):
                calls[name] += 1
                return derive(ctx, selection)

            rule.derive = counted

    _, snapshots, built = _run(definitions, batches["delayed"], count_derives)
    assert set(calls) == {
        "scatsCongestion", "delayIncrease", "disagree", "agree",
        "busCongestion",
    }
    assert all(n == len(snapshots) for n in calls.values()), calls
    assert built == len(snapshots)
    # The cache was hit, and cut into more pieces than there were
    # bodies run: several evaluation requests served by one pass.
    assert sum(s.cache_invalidations for s in snapshots) > 0
    assert sum(s.compiled_evals for s in snapshots) > sum(calls.values())
    assert sum(s.compiled_fallbacks for s in snapshots) == 0


def test_a_quiet_query_freezes_no_payload(streams, monkeypatch):
    scenario, batches = streams
    frozen = []
    freeze = incremental.freeze

    def counting_freeze(value):
        frozen.append(value)
        return freeze(value)

    monkeypatch.setattr(incremental, "freeze", counting_freeze)
    definitions = build_traffic_definitions(scenario.topology, adaptive=True)
    # Every SDE arrives the moment it occurs: every query after the
    # first reuses its cache and invalidates none of it...
    _, snapshots, _ = _run(definitions, batches["punctual"])
    assert sum(s.cache_hits for s in snapshots) > 0
    assert sum(s.cache_invalidations for s in snapshots) == 0
    # ...and publishing that nothing changed costs no payload, although
    # delayIncrease re-derives the head of its window at every query.
    assert sum(len(s.occurrences["delayIncrease"]) for s in snapshots) > 0
    assert not frozen
    # With late arrivals re-derived points are compared — by equality
    # first, frozen only where that fails.
    _, snapshots, _ = _run(definitions, batches["delayed"])
    assert sum(s.cache_invalidations for s in snapshots) > 0
    compared = sum(
        len(s.occurrences[name])
        for s in snapshots
        for name in ("disagree", "agree", "delayIncrease")
    )
    assert len(frozen) < compared / 10
