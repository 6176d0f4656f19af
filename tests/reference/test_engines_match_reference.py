"""Both engines against the naive evaluator (``naive.py``), not against
each other.

* A Hypothesis state machine drives one engine and the naive
  evaluator with the same operations in any order — feed in order,
  feed delayed within and past the window, feed a duplicate, feed
  columnar, slide, pickle round trips (whole; streamless +
  ``refill_columns`` for ``RTEC``) — over a rule set with one
  definition of every kind, plus a compiled derived event, simple
  fluent and valued fluent (``RTEC`` runs their array bodies, the
  evaluator and ``ReferenceRTEC`` their interpreted twins, so the
  point arrays of a compiled fluent body are held to the definition);
  after every query the engine's snapshot must equal the evaluator's.  Tier-1 runs it derandomised with a
  fixed example budget; given ``--hypothesis-seed`` (CI's ``chaos``
  job draws one and prints it) it runs a larger, seeded budget.
* The golden small city's recorded ``(window, step)`` pairs, static
  and adaptive, are replayed through the evaluator and each engine.

What this is the only check on: the inertia seed — "the previous
evaluation is the authority on the first time-point of the window",
with the episode's historical start retained — which ``ReferenceRTEC``
inherits from ``RTEC`` and so cannot check for it.  (With
``seed_point`` in ``RTEC._simple_intervals`` moved from ``window_start
+ EFFECT_DELAY`` to ``window_start``, the state machine fails for both
classes while every engine-against-engine leg — golden trace, compiled
parity, delay parity, scenario parity — and the golden replay below
still pass: the city has no initiation on a window boundary.)
"""

import ast
import pickle
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core import RTEC, Event, FluentFact, Occurrence
from repro.core.columns import ColumnSpec, SDEColumns
from repro.core.compiled import CompiledRule
from repro.core.window import streamless_checkpoint
from repro.core.intervals import intersect_all
from repro.core.reference import ReferenceRTEC
from repro.core.rules import (
    DerivedEvent,
    FunctionalStaticFluent,
    SimpleFluent,
    ValuedFluent,
)
from repro.core.traffic import build_traffic_definitions
from tests.golden.record_golden import (
    CONFIGS,
    HORIZON,
    golden_params,
    golden_scenario,
    serialise_snapshot,
)

from . import naive
from .naive import NaiveRTEC

ENGINES = pytest.mark.parametrize(
    "engine_class", [RTEC, ReferenceRTEC], ids=["RTEC", "ReferenceRTEC"]
)


# ----------------------------------------------------------------------
# The fence: the evaluator shares no code with what it checks
# ----------------------------------------------------------------------
def test_the_naive_evaluator_imports_nothing_it_checks():
    source = Path(naive.__file__).read_text()
    assert len(source.splitlines()) <= 300
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module, alias.name) for alias in node.names)
    assert {module for module, _ in imported if "repro" in module} == {
        "repro.core.events", "repro.core.intervals", "repro.core.rules",
    }
    assert {name for module, name in imported if "repro" in module} == {
        "Event", "FluentFact", "IntervalList",
        "DerivedEvent", "SimpleFluent", "StaticFluent", "ValuedFluent",
    }


# ----------------------------------------------------------------------
# A rule set with one definition of every kind
# ----------------------------------------------------------------------
WINDOW, STEP = 100, 40
IDS = ("a", "b", "c")
PINGS = ColumnSpec(token=("id",))


def _payload(event):
    return {"id": event["id"], "tag": event["tag"]}


class Echo(DerivedEvent):
    """One occurrence per ``ping``, carrying the ping's unique tag (so
    the order of occurrences tied on time and key is observable) and
    what ``gps`` says of its grounding then."""

    def __init__(self, name, *, compile_it=False):
        super().__init__(name)
        self._compile_it = compile_it

    def occurrences(self, ctx):
        for ping in ctx.events("ping"):
            key = (ping["id"],)
            yield Occurrence(self.name, key, ping.time, {
                **_payload(ping),
                "at": ctx.fact_at("gps", key, ping.time),
                "latest": ctx.fact_latest("gps", key, ping.time),
            })

    def compiled(self, params):
        return CompiledEcho(self.name) if self._compile_it else None


class CompiledEcho(CompiledRule):
    """``Echo`` without the ``gps`` lookups, over the window's arrays."""

    columns = {("event", "ping"): PINGS}

    def __init__(self, name):
        self.name = name

    def derive(self, ctx):
        pings = ctx.events_columns("ping", PINGS)
        rows = np.arange(pings.n)
        # A compiled derived event hands its occurrences over in
        # (time, key) order.
        return {"occ": sorted(
            (
                Occurrence(
                    self.name, (n,), t,
                    {"id": n, "tag": tag, "at": None, "latest": None},
                )
                for n, tag, t in zip(
                    pings.cells("id", rows),
                    pings.cells("tag", rows),
                    pings.times.tolist(),
                )
            ),
            key=attrgetter("time", "key"),
        )}


class FastEcho(Echo):
    """The interpreted twin the evaluator runs of :class:`CompiledEcho`."""

    def occurrences(self, ctx):
        for ping in ctx.events("ping"):
            yield Occurrence(self.name, (ping["id"],), ping.time, {
                **_payload(ping), "at": None, "latest": None,
            })


class On(SimpleFluent):
    """``on(Id)``: initiated by ``on``, terminated by ``off``."""

    def __init__(self, name, *, compile_it=False):
        super().__init__(name)
        self._compile_it = compile_it

    def initiations(self, ctx):
        return [((e["id"],), e.time) for e in ctx.events("on")]

    def terminations(self, ctx):
        return [((e["id"],), e.time) for e in ctx.events("off")]

    def compiled(self, params):
        return CompiledOn() if self._compile_it else None


class CompiledOn(CompiledRule):
    """``On`` over the window's arrays: its points leave as grounding
    codes and times, the array path a compiled fluent body takes."""

    columns = {("event", "on"): PINGS, ("event", "off"): PINGS}

    def derive(self, ctx):
        on, off = (ctx.events_columns(kind, PINGS) for kind in ("on", "off"))
        return {
            "init": (on.codes, on.times),
            "term": (off.codes, off.times),
            "groundings": on.tokens.tokens.__getitem__,
        }


class Level(ValuedFluent):
    """``level(Id) = V``: ``set`` initiates a value, ``clear``
    terminates one."""

    def __init__(self, name, *, compile_it=False):
        super().__init__(name)
        self._compile_it = compile_it

    def initiations(self, ctx):
        return [((e["id"],), e["value"], e.time) for e in ctx.events("set")]

    def terminations(self, ctx):
        return [((e["id"],), e["value"], e.time) for e in ctx.events("clear")]

    def compiled(self, params):
        return CompiledLevel() if self._compile_it else None


class CompiledLevel(CompiledRule):
    """``Level`` over the window's arrays: grounding codes, value codes
    (over a table numbered in first-seen order, not in value order) and
    times."""

    columns = {("event", "set"): PINGS, ("event", "clear"): PINGS}

    def derive(self, ctx):
        table = {}
        streams = {}
        for stream, kind in (("init", "set"), ("term", "clear")):
            rows = ctx.events_columns(kind, PINGS)
            values = [
                table.setdefault(v, len(table))
                for v in rows.cells("value", np.arange(rows.n))
            ]
            streams[stream] = (
                rows.codes, np.array(values, dtype=np.int64), rows.times
            )
        streams["groundings"] = rows.tokens.tokens.__getitem__
        streams["values"] = list(table)
        return streams


class Armed(SimpleFluent):
    """Initiated by an ``echo`` while ``on`` holds — which, early in a
    window, is the seeded part of ``on`` — terminated by ``off``."""

    def __init__(self):
        super().__init__("armed", depends_on=("echo", "on"))

    def initiations(self, ctx):
        return [
            (occ.key, occ.time) for occ in ctx.derived("echo")
            if ctx.holds_at("on", occ.key, occ.time)
        ]

    def terminations(self, ctx):
        return [((e["id"],), e.time) for e in ctx.events("off")]


def _on_and_high(ctx):
    return {
        key: intersect_all([on, ctx.intervals("level", key + (2,))])
        for key, on in ctx.fluent("on").items()
    }


def definitions():
    return [
        Echo("echo"),
        FastEcho("fastEcho", compile_it=True),
        On("on"),
        On("fastOn", compile_it=True),
        Level("level"),
        Level("fastLevel", compile_it=True),
        Armed(),
        FunctionalStaticFluent("onAndHigh", _on_and_high, ("on", "level")),
    ]


def comparable(snapshot):
    """The fields a snapshot is compared on; fluent groundings that
    hold nowhere are not a difference."""
    return {
        "q": snapshot.query_time,
        "n_events": snapshot.n_events,
        "n_new_events": snapshot.n_new_events,
        "occurrences": snapshot.occurrences,
        "fluents": {
            name: {key: il for key, il in by_key.items() if il}
            for name, by_key in snapshot.fluents.items()
        },
    }


# ----------------------------------------------------------------------
# The state machine
# ----------------------------------------------------------------------
#: Multiples of ten: every other window start (a multiple of twenty)
#: is an SDE time, so the boundary cases are the common ones.
_ticks = st.integers(1, 12).map(lambda n: 10 * n)
_kinds = st.sampled_from(("ping", "ping", "on", "off", "set", "clear", "gps"))
#: ``(kind, id, value, ticks after the base time, lag)``
_sketches = st.lists(
    st.tuples(
        _kinds, st.sampled_from(IDS), st.integers(1, 3), _ticks,
        # Half on time; the rest late within the window, or past it.
        st.sampled_from((0, 0, 0, 5, 35, 60, 95, 130, 160)),
    ),
    max_size=6,
)


class EnginesMatchNaive(RuleBasedStateMachine):
    engine_class = RTEC

    def __init__(self):
        super().__init__()
        args = dict(window=WINDOW, step=STEP, params={})
        self.engine = self.engine_class(definitions(), **args)
        self.naive = NaiveRTEC(definitions(), **args)
        self.q = 0
        self.tags = 0
        self.fed = []

    def _records(self, sketches, base):
        """Events and facts from ``sketches``, none arriving at or
        before the last query time (what has arrived is known)."""
        events, facts = [], []
        for kind, ident, value, ticks, lag in sketches:
            time = max(base + ticks, 1)
            arrival = max(time, self.q + 1) + lag
            self.tags += 1
            if kind == "gps":
                facts.append(
                    FluentFact("gps", (ident,), self.tags, time, arrival)
                )
            else:
                events.append(Event(
                    kind, time,
                    {"id": ident, "value": value, "tag": self.tags}, arrival,
                ))
        self.fed += events + facts
        self.naive.feed(events, facts)
        return events, facts

    @initialize(sketches=_sketches)
    def feed_the_initial_stream(self, sketches):
        """One columnar feed, marked as the regenerable stream — what
        a streamless checkpoint drops and ``refill_columns`` restores."""
        self.initial = SDEColumns.from_sdes(*self._records(sketches, 0))
        self.engine.feed_columns(self.initial)
        self.engine.mark_stream_fed()

    @rule(sketches=_sketches)
    def feed_in_order(self, sketches):
        self.engine.feed(*self._records(sketches, self.q))

    @rule(sketches=_sketches, back=st.integers(1, 3))
    def feed_what_occurred_earlier(self, sketches, back):
        self.engine.feed(*self._records(sketches, self.q - back * 60))

    @rule(sketches=_sketches)
    def feed_columnar(self, sketches):
        self.engine.feed_columns(
            SDEColumns.from_sdes(*self._records(sketches, self.q - 40))
        )

    @precondition(lambda self: self.fed)
    @rule(data=st.data())
    def feed_a_duplicate(self, data):
        record = data.draw(st.sampled_from(self.fed))
        arrival = max(record.arrival, self.q + 1)
        if isinstance(record, FluentFact):
            twin = FluentFact(
                record.name, record.key, record.value, record.time, arrival
            )
            events, facts = [], [twin]
        else:
            twin = Event(record.type, record.time, record.payload, arrival)
            events, facts = [twin], []
        self.naive.feed(events, facts)
        self.engine.feed(events, facts)

    @rule(steps=st.integers(1, 3))
    def slide(self, steps):
        self.q += steps * STEP
        assert comparable(self.engine.query(self.q)) == comparable(
            self.naive.query(self.q)
        )

    @rule()
    def pickle_whole(self):
        self.engine = pickle.loads(pickle.dumps(self.engine))

    @precondition(lambda self: self.engine_class is RTEC)
    @rule()
    def pickle_streamless_and_refill(self):
        with streamless_checkpoint():
            blob = pickle.dumps(self.engine)
        self.engine = pickle.loads(blob)
        self.engine.refill_columns(self.initial, self.q)


@ENGINES
def test_any_interleaving_matches_the_naive_evaluator(request, engine_class):
    seeded = request.config.getoption("hypothesis_seed", None) is not None
    machine = type(
        "EnginesMatchNaive", (EnginesMatchNaive,), {"engine_class": engine_class}
    )
    run_state_machine_as_test(
        machine,
        settings=settings(
            max_examples=400 if seeded else 50,
            stateful_step_count=30,
            derandomize=not seeded,
            deadline=None,
        ),
    )


# ----------------------------------------------------------------------
# The golden small city, replayed
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden_stream():
    scenario = golden_scenario()
    data = scenario.generate(0, HORIZON + 600)
    return scenario, list(data.events), list(data.facts)


def _replay(engine_class, golden_stream, window, step, adaptive):
    scenario, events, facts = golden_stream
    engine = engine_class(
        build_traffic_definitions(
            scenario.topology, adaptive=adaptive, noisy_variant="pessimistic"
        ),
        window=window, step=step, params=golden_params(),
    )
    engine.feed(events, facts)
    return [serialise_snapshot(s) for s in engine.run(HORIZON)]


@pytest.fixture(scope="module")
def naive_traces():
    """The evaluator's trace per recorded pair, computed once for both
    engine classes."""
    return {}


@ENGINES
@pytest.mark.parametrize(
    "config", CONFIGS,
    ids=lambda c: "w{window}-s{step}-{0}".format(
        "adaptive" if c["adaptive"] else "static", **c
    ),
)
def test_the_golden_city_replays_as_the_naive_evaluator_says(
    golden_stream, naive_traces, config, engine_class
):
    key = tuple(config.items())
    if key not in naive_traces:
        naive_traces[key] = _replay(NaiveRTEC, golden_stream, **config)
    assert _replay(engine_class, golden_stream, **config) == naive_traces[key]
