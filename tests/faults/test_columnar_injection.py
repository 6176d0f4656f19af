"""Injector parity: the columnar ``inject_scenario`` against the
record-by-record :class:`FaultInjector` it replaced.

For every named profile (and one with every fault class switched on
for every feed) and a Hypothesis-drawn small stream, injecting into the
column blocks must give what :meth:`FaultInjector.event` /
:meth:`FaultInjector.fact` give applied to each record in turn: the
same records with the same arrivals, duplicates adjacent, the same
corrupted cells of the same exact types, and a metrics registry that
cannot tell the two apart.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import EventColumns, FactColumns, SDEColumns
from repro.dublin import ScenarioData
from repro.faults import PROFILES, FaultInjector, inject_scenario
from repro.obs import Registry
from tests.golden.stream_identity import SPLIT_QUIRKS, digest_records

ALL_PROFILES = [*PROFILES.values(), SPLIT_QUIRKS]


def reference_inject(data, profile, metrics):
    """The object loop ``inject_scenario`` used to be."""
    injector = {
        feed: FaultInjector(spec, seed=profile.seed, feed=feed, metrics=metrics)
        for feed, spec in (
            ("scats", profile.scats), ("bus", profile.bus), ("gps", profile.bus),
        )
    }
    events = []
    for ev in data.events:
        if ev.type == "traffic":
            events.extend(injector["scats"].event(ev))
        elif ev.type == "move":
            events.extend(injector["bus"].event(ev))
        else:
            events.append(ev)
    facts = []
    for fact in data.facts:
        if fact.name == "gps":
            facts.extend(injector["gps"].fact(fact))
        else:
            facts.append(fact)
    return events, facts


_stamps = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 9)), max_size=25
)
_reals = st.floats(-50.0, 2000.0, allow_nan=False)


@st.composite
def streams(draw) -> ScenarioData:
    """A small array-native stream: ``traffic``, ``move`` and ``other``
    event blocks and ``gps`` and ``weather`` fact blocks, time-sorted
    with ties, every column kind (int, float, object) present."""

    def stamps():
        drawn = draw(_stamps)
        times = np.cumsum([dt for dt, _ in drawn], dtype=np.int64) + 100
        lag = np.array([lag for _, lag in drawn], dtype=np.int64)
        return times, times + lag

    def column(strategy, n, dtype):
        values = draw(st.lists(strategy, min_size=n, max_size=n))
        return np.array(values, dtype=dtype)

    times, arrivals = stamps()
    n = len(times)
    traffic = EventColumns(
        "traffic", times, arrivals,
        fields={
            "intersection": [f"I{i % 4}" for i in range(n)],
            "approach": column(st.sampled_from(["N", "S", 3]), n, object),
            "density": column(_reals, n, np.float64),
            "flow": column(_reals, n, np.float64),
        },
    )
    times, arrivals = stamps()
    n = len(times)
    buses = np.array([f"B{i % 3}" for i in range(n)], dtype=object)
    move = EventColumns(
        "move", times, arrivals,
        fields={
            "bus": buses,
            "line": column(st.sampled_from(["L1", "L2", ""]), n, object),
            "delay": column(_reals, n, np.float64),
        },
    )
    gps = FactColumns(
        "gps", times, arrivals,
        key_columns=(buses,),
        value_fields={
            "lon": column(_reals, n, np.float64),
            "direction": column(st.integers(0, 1), n, np.int64),
            "congestion": column(st.integers(0, 3), n, np.int64),
        },
    )
    times, arrivals = stamps()
    other = EventColumns(
        "other", times, arrivals, fields={"delay": times * 0.5}
    )
    weather = FactColumns(
        "weather", times, arrivals, value_fields={"congestion": times % 2}
    )
    return ScenarioData(
        SDEColumns([traffic, move, other], [gps, weather]), 100, 2000
    )


@pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.name)
@settings(max_examples=15, deadline=None)
@given(data=streams(), seed=st.integers(0, 2**16))
def test_columnar_injection_equals_record_injection(profile, data, seed):
    profile = profile.with_seed(seed)
    before = digest_records(data.events, data.facts)
    # The same stream as typed field columns (the simulators) and as
    # object columns (a loaded dataset, built from its records).
    objects = ScenarioData(
        SDEColumns(
            [
                EventColumns.from_events(b.type, b.records(np.arange(len(b))))
                for b in data.columns.events
            ],
            [
                FactColumns.from_facts(b.name, b.records(np.arange(len(b))))
                for b in data.columns.facts
            ],
        ),
        data.start,
        data.end,
    )
    expected_metrics = Registry()
    events, facts = reference_inject(objects, profile, expected_metrics)
    expected = digest_records(events, facts)
    for form in (data, objects):
        metrics = Registry()
        out = inject_scenario(form, profile, metrics=metrics)
        assert len(out.events) == len(events)
        assert len(out.facts) == len(facts)
        assert digest_records(out.events, out.facts) == expected
        assert metrics.to_dict() == expected_metrics.to_dict()
        # The input's arrays are never written to.
        assert digest_records(form.events, form.facts) == before


def test_duplicates_are_adjacent_and_share_the_corruption():
    profile = SPLIT_QUIRKS.with_seed(3)
    times = np.arange(100, 400, dtype=np.int64)
    gps = FactColumns(
        "gps", times, times.copy(),
        key_columns=([f"B{i % 5}" for i in range(300)],),
        value_fields={"congestion": times % 2, "lon": times * 1.0},
    )
    out = inject_scenario(
        ScenarioData(SDEColumns([], [gps]), 100, 400), profile
    )
    facts = list(out.facts)
    twins = [
        (a, b) for a, b in zip(facts, facts[1:])
        if (a.key, a.time) == (b.key, b.time)
    ]
    assert twins and all(a == b for a, b in twins)
    corrupted = [f for f in facts if f.value["congestion"] != f.time % 2]
    assert corrupted and any(a in corrupted for a, _ in twins)
