"""What a query costs, counted: the bus-side rules do work in
proportion to what arrived, not to the window.

Byte-identical output is the parity suites' business; these tests
count the work behind it on the golden miniature city — its own
stream (in order, arrivals jittered and lagged as the simulators do)
and a storm-like twin with half the bus SDEs delayed by minutes:

* ``close/4`` is decided once per admitted ``gps`` row per engine, by
  the array join — never by the scalar lookup;
* the ``move``-``gps`` join is decided once per admitted ``move`` row
  and kept on the row, with its ``close/4`` slice; a query decides it
  again only for the rows a later ``gps`` row of their ``(bus, time)``
  re-opened;
* a row's evaluation columns are filled once, when it is first read
  after admission — the window is not re-encoded per query — and no
  ``move``, ``gps`` or ``traffic`` record is built at all: what the
  default path materialises is ``crowd`` answers, and beside an
  interpreted body that reads every type, every admitted row, exactly
  once over its life;
* every definition is evaluated once per query over the one
  full-window context — a compiled body runs exactly once, whatever
  arrived late;
* ``disagree``/``agree`` decide every comparison anew but build an
  ``Occurrence`` only for a pair that never fired before: the object
  of a pair still in the window is kept in the pair's slot on its
  ``move`` row and handed out again, until the row's join is decided
  anew;
* the compiled fluent bodies hand their points over as ``int64``
  arrays, never a tuple per point, and the engine looks a grounding
  up at most once per distinct grounding per query, however
  many points it has.
"""

import pickle
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.compiled as compiled
from repro.core import RTEC, Event
from repro.core.columns import SDEColumns
from repro.core.compiled import (
    CompiledBusCongestion,
    CompiledScatsCongestion,
    CompiledTrafficRegime,
    CompiledTrafficTrend,
)
from repro.core.events import Occurrence
from repro.core.rules import FunctionalEvent, RuleContext
from repro.core.traffic import ScatsTopology, build_traffic_definitions

from tests.golden.record_golden import HORIZON, golden_params, golden_scenario

from .helpers import disordered_bus_rows, with_arrivals

WINDOW, STEP = 1200, 300
MIRRORED = ("traffic", "move", "gps")


class CountingTopology(ScatsTopology):
    """Counts the positions each form of ``close/4`` is asked about."""

    def __init__(self, topology):
        super().__init__(
            list(topology._by_id.values()),
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
        "delayed": with_arrivals(golden, delayed),
        "punctual": with_arrivals(golden, lambda block, name: block.times),
    }


def _engine(definitions, batch, **engine_args):
    engine = RTEC(
        definitions, window=WINDOW, step=STEP, params=golden_params(),
        **engine_args,
    )
    engine.feed_columns(batch)
    return engine


def _run(definitions, batch, instrument=lambda engine: None, **engine_args):
    """Feed ``batch`` to a default engine over ``definitions``; returns
    it with its snapshots and the number of rule contexts built."""
    engine = _engine(definitions, batch, **engine_args)
    instrument(engine)
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


def _reopened(batch):
    """``move`` rows a later ``gps`` row of their ``(bus, time)``
    re-opens, counted from the stream: per query, the rows admitted at
    an earlier query that share a key with a ``gps`` row it admits."""
    move, gps = batch.event_block("move"), batch.fact_block("gps")
    last = HORIZON // STEP

    def admitted_at(block):
        # The query q_j = j * STEP with q_{j-1} < arrival <= q_j.
        return np.maximum(1, -(-block.arrivals // STEP)).tolist()

    move_at = admitted_at(move)
    moves = defaultdict(list)
    for row, key in enumerate(
        zip(move.fields["bus"].tolist(), move.times.tolist())
    ):
        moves[key].append((move_at[row], row))
    reopened = set()
    for key, j in zip(
        zip(gps.key_columns[0].tolist(), gps.times.tolist()),
        admitted_at(gps),
    ):
        if j > last:
            continue
        reopened.update((row, j) for i, row in moves[key] if i < j)
    return len(reopened)


@pytest.mark.parametrize("stream", ["golden", "delayed"])
def test_the_join_is_decided_once_per_admitted_move_row(streams, stream):
    scenario, batches = streams
    batch = batches[stream]
    _, snapshots, _ = _run(
        build_traffic_definitions(scenario.topology, adaptive=True), batch
    )
    assert sum(s.rows_skipped_horizon for s in snapshots) == 0
    reopened = _reopened(batch)
    assert sum(s.join_rows_decided for s in snapshots) == (
        _admitted(batch, "move") + reopened
    )
    if stream == "delayed":
        assert reopened > 0


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
    # over the raw SDEs reads arrays.
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


def _read_every_type(ctx):
    """An interpreted body over the records of every input type."""
    for name in ("traffic", "move", "crowd"):
        ctx.events(name)
    ctx.fact_keys("gps")
    return ()


@pytest.mark.parametrize("stream", ["golden", "delayed"])
def test_the_interpreter_materialises_each_row_exactly_once(streams, stream):
    scenario, batches = streams
    batch = _with_crowd(batches[stream])
    definitions = build_traffic_definitions(scenario.topology, adaptive=True)
    reader = FunctionalEvent("reader", _read_every_type)
    engine, snapshots, _ = _run(definitions + [reader], batch)
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
    # Same recognition beside the reader as without it.
    _, default, _ = _run(definitions, batch)
    assert [s.occurrences for s in snapshots] == [
        {**s.occurrences, "reader": []} for s in default
    ]
    assert [s.fluents for s in snapshots] == [s.fluents for s in default]


def test_compiled_bodies_run_once_per_query_without_contexts(streams):
    """A query builds its one full-window context and evaluates every
    definition over it once, however many late SDEs it admitted."""
    scenario, batches = streams
    definitions = build_traffic_definitions(scenario.topology, adaptive=True)
    for stream in ("delayed", "punctual"):
        calls = Counter()

        def count_derives(engine):
            for name, rule in engine._compiled.items():
                def counted(ctx, name=name, derive=rule.derive):
                    calls[name] += 1
                    return derive(ctx)

                rule.derive = counted

        engine, snapshots, built = _run(
            definitions, batches[stream], count_derives
        )
        n = len(snapshots)
        assert built == n
        assert calls == dict.fromkeys(engine._compiled, n)
        # Counted once per definition per query: nine compiled bodies,
        # one interpreted by choice (congestionInTheMake).
        assert len(engine._compiled) == 9
        assert [s.compiled_evals for s in snapshots] == [9] * n
        assert [s.compiled_fallbacks for s in snapshots] == [1] * n
        assert not any(
            s.cache_hits or s.cache_misses or s.cache_invalidations
            for s in snapshots
        )


COMPARISONS = ("disagree", "agree")


@pytest.fixture
def constructions(monkeypatch):
    """Occurrences the compiled bodies build, per CE name."""
    built = Counter()

    def counting(name, *fields):
        built[name] += 1
        return Occurrence(name, *fields)

    monkeypatch.setattr(compiled, "Occurrence", counting)
    return built


def _adaptive(scenario, batch, **engine_args):
    return _engine(
        build_traffic_definitions(scenario.topology, adaptive=True),
        batch, **engine_args,
    )


QUERIES = range(STEP, HORIZON + 1, STEP)


def _slots(engine, name):
    """The pair slots comparison ``name`` keeps on the ``move`` store,
    as a list (``None``: an empty slot)."""
    rule = engine._compiled[name]
    store = engine._wm.store("event", "move")
    return store.ragged_slots(("close", id(rule.topology)), name).tolist()


@pytest.mark.parametrize("stream", ["delayed", "punctual"])
def test_a_row_still_in_the_window_keeps_its_occurrence(
    streams, stream, constructions
):
    scenario, batches = streams
    engine = _adaptive(scenario, batches[stream])
    # Every object handed out so far (kept, so no id is reused).
    handed_out = {name: {} for name in COMPARISONS}
    again = 0
    for q in QUERIES:
        before = Counter(constructions)
        snapshot = engine.query(q)
        for name in COMPARISONS:
            fired = snapshot.occurrences[name]
            held = {id(o) for o in _slots(engine, name) if o is not None}
            # Every firing is held in its pair's slot...
            assert {id(o) for o in fired} <= held
            # ...and exactly those never handed out before were built;
            # the others are the very objects of an earlier query.
            new = [o for o in fired if id(o) not in handed_out[name]]
            assert constructions[name] - before[name] == len(new)
            again += len(fired) - len(new)
            handed_out[name].update((id(o), o) for o in fired)
    assert again > 0


def test_the_pair_slots_do_not_travel(streams):
    scenario, batches = streams
    engine = _adaptive(scenario, batches["delayed"])
    for q in QUERIES[:4]:
        engine.query(q)
    assert all(any(_slots(engine, name)) for name in COMPARISONS)
    twin = pickle.loads(pickle.dumps(engine))
    store = twin._wm.store("event", "move")
    assert not store._slots and "joined" not in store._bufs
    assert all(
        not hasattr(twin._compiled[name], "_held") for name in COMPARISONS
    )
    # Refilled at the first query, which answers as the original does.
    ours, theirs = engine.query(QUERIES[4]), twin.query(QUERIES[4])
    assert ours.occurrences == theirs.occurrences
    assert ours.fluents == theirs.fluents
    for name in COMPARISONS:
        held = [o for o in _slots(twin, name) if o is not None]
        assert len(held) == len(theirs.occurrences[name])


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    delay_rate=st.sampled_from([0.0, 0.3, 0.6]),
    duplicate_rate=st.sampled_from([0.0, 0.2]),
    drop_rate=st.sampled_from([0.0, 0.2]),
)
def test_the_pair_slots_change_no_answer(
    streams, seed, delay_rate, duplicate_rate, drop_rate
):
    """Delayed and duplicated ``move``/``gps`` rows, ``gps`` rows late
    or lost: an engine whose pair slots are emptied before every query
    answers exactly as an untouched twin."""
    scenario, batches = streams
    batch = disordered_bus_rows(
        batches["golden"], seed, delay_rate, duplicate_rate, drop_rate
    )
    forgetful, twin = _adaptive(scenario, batch), _adaptive(scenario, batch)
    for q in QUERIES:
        store = forgetful._wm.store("event", "move")
        if store is not None:
            store._slots.clear()
        ours, theirs = forgetful.query(q), twin.query(q)
        assert ours.occurrences == theirs.occurrences
        assert ours.fluents == theirs.fluents


FLUENT_EVALUATORS = (
    CompiledScatsCongestion,
    CompiledTrafficTrend,
    CompiledTrafficRegime,
    CompiledBusCongestion,
)


@pytest.mark.parametrize("stream", ["golden", "delayed"])
def test_fluent_points_are_arrays_and_groundings_are_looked_up_once(
    streams, stream
):
    scenario, batches = streams
    engine = _adaptive(scenario, batches[stream])
    fluents = {
        name: rule for name, rule in engine._compiled.items()
        if isinstance(rule, FLUENT_EVALUATORS)
    }
    assert {type(rule) for rule in fluents.values()} == set(FLUENT_EVALUATORS)
    lookups, distinct, points = Counter(), Counter(), Counter()

    def instrument(name, derive):
        def derive_counted(ctx):
            out = derive(ctx)
            codes = []
            for kind in ("init", "term"):
                for column in out[kind]:
                    assert isinstance(column, np.ndarray), (name, kind)
                    assert column.dtype == np.int64, (name, kind)
                codes.append(out[kind][0])
            codes = np.concatenate(codes)
            points[name] += len(codes)
            distinct[name] = len(np.unique(codes))
            lookup = out["groundings"]

            def counted_lookup(code):
                lookups[name, code] += 1
                return lookup(code)

            return {**out, "groundings": counted_lookup}

        return derive_counted

    for name, rule in fluents.items():
        rule.derive = instrument(name, rule.derive)
    looked_up = Counter()
    for q in QUERIES:
        lookups.clear()
        engine.query(q)
        assert set(lookups.values()) <= {1}
        per_name = Counter(name for name, _ in lookups)
        assert per_name == +distinct
        looked_up.update(per_name)
        distinct.clear()
    # Every body had points, and more points than lookups.
    assert set(points) == set(fluents)
    assert all(points[name] > looked_up[name] for name in fluents)
