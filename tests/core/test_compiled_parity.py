"""Property-based parity: compiled columnar path vs the interpreter.

Hypothesis generates randomized SDE batches — arbitrary reading
values around the rule thresholds, delayed arrivals, duplicate
time-points, multi-window streams — and asserts that the two engines
recognise *identical* output on them:

* ``RTEC`` (the array window, every compiled body, fed via
  ``feed_columns``),
* ``ReferenceRTEC`` (the window rebuilt from objects per query, every
  body on the interpreter).

Any divergence — an ``np.int64`` leaking into a time-point, a payload
coerced through ``float64``, a run-window off-by-one in a vectorised
rule body, a ``move`` joined to the wrong ``gps`` — fails here with the
generating batch minimised.

The static suite and both self-adaptive suites are covered: the
bus-report family (``disagree``/``agree``/``busCongestion``/
``delayIncrease``) is compiled over a shared move-gps-close relation,
and the batches carry the cases that relation must get right — a
``move`` whose ``gps`` is missing or arrives later, duplicated halves,
two different ``gps`` facts at one time-point, congestion values other
than 0/1, buses close to two intersections or to none, and ``crowd``
answers feeding the ``noisy`` fluent.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RTEC, Event
from repro.core.columns import SDEColumns
from repro.core.reference import ReferenceRTEC
from repro.core.traffic import build_traffic_definitions, default_traffic_params

from .helpers import LON, bus_report, crowd_event, make_topology

WINDOW = 600
STEP = 300
HORIZON = 4 * STEP

SENSORS = (("I1", "S1"), ("I1", "S2"), ("I2", "S1"))
BUSES = ("B1", "B2", "B3")

#: Intersections ~100 m apart: a bus between I1 and I2 is close to
#: both, one at I3 to I3 alone, one far east to none.
SPACING = 0.0015
BUS_LONS = (LON, LON + SPACING / 2, LON + 2 * SPACING, LON + 0.1)


def _engines(topology, adaptive=False, noisy_variant="pessimistic"):
    """The (compiled, interpreting reference) engine pair."""
    params = default_traffic_params()
    return [
        engine_class(
            build_traffic_definitions(
                topology, adaptive=adaptive, noisy_variant=noisy_variant
            ),
            window=WINDOW,
            step=STEP,
            params=params,
        )
        for engine_class in (RTEC, ReferenceRTEC)
    ]


def _serialise(snapshot):
    """One query's output in an order-insensitive comparable form."""
    fluents = {
        name: {
            key: list(il)
            for key, il in sorted(groups.items())
            if len(il)
        }
        for name, groups in sorted(snapshot.fluents.items())
    }
    occurrences = {
        name: sorted(
            (o.key, o.time, sorted(o.payload.items())) for o in occs
        )
        for name, occs in sorted(snapshot.occurrences.items())
        if occs
    }
    return {
        "q": snapshot.query_time,
        "fluents": {k: v for k, v in fluents.items() if v},
        "occurrences": occurrences,
    }


@st.composite
def sde_batches(draw):
    """A randomized mixed SCATS/bus stream with delivery anomalies."""
    events = []
    facts = []
    n_traffic = draw(st.integers(min_value=0, max_value=30))
    for _ in range(n_traffic):
        t = draw(st.integers(min_value=1, max_value=HORIZON))
        intersection, sensor = draw(st.sampled_from(SENSORS))
        # Values straddle the congestion/trend thresholds so every
        # compiled rule shape fires on some batches.
        density = draw(
            st.floats(min_value=0.0, max_value=160.0, allow_nan=False)
        )
        flow = draw(
            st.floats(min_value=100.0, max_value=1200.0, allow_nan=False)
        )
        delay_s = draw(st.sampled_from((0, 0, 0, 150, 400)))
        events.append(
            Event(
                "traffic",
                t,
                {
                    "intersection": intersection,
                    "approach": "A",
                    "sensor": sensor,
                    "density": density,
                    "flow": flow,
                },
                arrival=t + delay_s,
            )
        )
    n_moves = draw(st.integers(min_value=0, max_value=14))
    lags = st.sampled_from((0, 0, 90, 400))
    for _ in range(n_moves):
        # Few distinct time-points, so reports of one bus collide.
        t = draw(st.integers(min_value=1, max_value=HORIZON // 20)) * 20
        # A value other than 0/1 is truthy for disagree/agree and
        # neither initiates nor terminates busCongestion.
        report = dict(
            bus=draw(st.sampled_from(BUSES)),
            lon=draw(st.sampled_from(BUS_LONS)),
            congestion=draw(st.sampled_from((0, 0, 1, 1, 2, 0.5))),
            delay=draw(st.integers(min_value=0, max_value=400)),
        )
        # The two halves of a report are delayed independently, and
        # either may be lost or duplicated.
        for half, sink in ((0, events), (1, facts)):
            fate = draw(st.sampled_from(("kept",) * 6 + ("lost", "twice")))
            if fate != "lost":
                record = bus_report(t, arrival=t + draw(lags), **report)[half]
                sink.extend([record] * (2 if fate == "twice" else 1))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        events.append(
            crowd_event(
                draw(st.integers(min_value=1, max_value=HORIZON)),
                intersection=draw(st.sampled_from(("I1", "I2", "I3"))),
                value=draw(st.sampled_from(("positive", "negative"))),
            )
        )
    # Exact duplicates stress tie-breaking and duplicate admission.
    if events and draw(st.booleans()):
        events.append(draw(st.sampled_from(events)))
    return events, facts


def _assert_identical_output(batch, **suite):
    events, facts = batch
    topology = make_topology(n_intersections=3, spacing=SPACING)
    compiled_engine, interp_engine = _engines(topology, **suite)

    # The compiled engine takes the columnar batch; the reference
    # engine takes the object lists — the hand-off format must not
    # change recognition either.
    compiled_engine.feed_columns(SDEColumns.from_sdes(events, facts))
    interp_engine.feed(events, facts)

    compiled_out = [_serialise(s) for s in compiled_engine.run(HORIZON)]
    interp_out = [_serialise(s) for s in interp_engine.run(HORIZON)]

    assert compiled_out == interp_out


@settings(max_examples=25, deadline=None)
@given(batch=sde_batches())
def test_randomized_batches_identical_output(batch):
    """The static suite: rule-set (3), every source trusted."""
    _assert_identical_output(batch, adaptive=False)


@pytest.mark.parametrize("noisy_variant", ["crowd", "pessimistic"])
@settings(max_examples=25, deadline=None)
@given(batch=sde_batches())
def test_randomized_batches_identical_adaptive_output(noisy_variant, batch):
    """The self-adaptive suites: ``disagree``/``agree`` feed ``noisy``
    (rule-set (4) or (5)), which filters rule-set (3′)."""
    _assert_identical_output(
        batch, adaptive=True, noisy_variant=noisy_variant
    )


@settings(max_examples=15, deadline=None)
@given(
    deltas=st.lists(
        st.integers(min_value=-120, max_value=120),
        min_size=2,
        max_size=10,
    ),
    period=st.sampled_from((20, 30, 60)),
)
def test_trend_runs_identical_output(deltas, period):
    """Focused monotone-run stress for the flattened trend compiler:
    consecutive readings of one sensor with arbitrary steps."""
    topology = make_topology()
    compiled_engine, interp_engine = _engines(topology)
    value = 60.0
    events = []
    for i, delta in enumerate(deltas):
        value = max(0.0, value + float(delta))
        events.append(
            Event(
                "traffic",
                (i + 1) * period,
                {
                    "intersection": "I1",
                    "approach": "A",
                    "sensor": "S1",
                    "density": value,
                    "flow": 800.0,
                },
            )
        )
    compiled_engine.feed_columns(SDEColumns.from_sdes(events, []))
    interp_engine.feed(events, [])
    compiled_out = [_serialise(s) for s in compiled_engine.run(HORIZON)]
    interp_out = [_serialise(s) for s in interp_engine.run(HORIZON)]
    assert compiled_out == interp_out
