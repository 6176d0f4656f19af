"""What a query costs, counted: the bus-side rules do work in
proportion to what arrived, not to the window.

Byte-identical output is the parity suites' business; these tests
count the work behind it on the golden miniature city — its own
stream (in order, arrivals jittered and lagged as the simulators do)
and a storm-like twin with half the bus SDEs delayed by minutes:

* ``close/4`` is decided once per admitted ``gps`` row per engine, by
  the array join — never by the scalar lookup;
* a record is encoded into the column mirrors once, when it is
  admitted — the window is not re-encoded per query;
* a compiled definition's body runs once per query, and no restricted
  context is built for it;
* a quiet query — nothing late, nothing changed upstream — freezes no
  payload to publish that nothing changed.
"""

import numpy as np
import pytest

import repro.core.incremental as incremental
from repro.core import RTEC
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


def _run(definitions, batch, instrument=lambda engine: None):
    """Feed ``batch`` to a default engine over ``definitions``; returns
    it with its snapshots and the number of rule contexts built."""
    engine = RTEC(
        definitions, window=WINDOW, step=STEP, params=golden_params()
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
