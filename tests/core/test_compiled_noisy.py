"""The compiled ``noisy`` (rule-set (4)) emits the interpreter's points.

``CompiledNoisy`` reads the firing pairs the compiled ``disagree`` and
``agree`` left for the query instead of their occurrence objects.  On
drawn windows its ``init`` and ``term`` streams, read through its
grounding lookup, must equal the interpreted bodies' point lists run
over the same context, order included (a stream's groundings are
listed in the order they first appear in it: F5's set order starts
there), and the engine's output must equal ``ReferenceRTEC``'s — also
when ``agree`` runs on the interpreter and ``noisy`` falls back to its
interpreted bodies.

The crowd answers are drawn at the intersections the buses are close
to, at one the topology does not have, and within and beyond the
response window of the disagreements, siding with the sensors or the
bus.  Tier-1 runs a fixed derandomised budget; given
``--hypothesis-seed`` (CI's ``chaos`` job draws one) a larger one.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RTEC, Event
from repro.core.columns import SDEColumns
from repro.core.reference import ReferenceRTEC
from repro.core.traffic import build_traffic_definitions, default_traffic_params

from .helpers import LON, bus_report, crowd_event, make_topology

WINDOW, STEP = 600, 300
HORIZON = 4 * STEP
#: ~100 m apart: a bus half-way between two is close to both.
SPACING = 0.0015
BUSES = ("B2", "B10", "B1")
BUS_LONS = (LON, LON + SPACING / 2, LON + 0.1)


def _budget(request):
    seeded = request.config.getoption("hypothesis_seed", None) is not None
    return settings(
        max_examples=150 if seeded else 30,
        derandomize=not seeded,
        deadline=None,
    )


@st.composite
def _windows(draw):
    """SCATS readings either side of the thresholds, bus reports on few
    time-points and crowd answers around them."""
    events, facts = [], []
    for _ in range(draw(st.integers(0, 10))):
        congested = draw(st.booleans())
        events.append(Event(
            "traffic",
            draw(st.integers(1, HORIZON)),
            {
                "intersection": draw(st.sampled_from(("I1", "I2"))),
                "approach": "A",
                "sensor": "S1",
                "density": 90.0 if congested else 20.0,
                "flow": 300.0 if congested else 900.0,
            },
        ))
    for _ in range(draw(st.integers(0, 16))):
        move, gps = bus_report(
            draw(st.integers(1, HORIZON // 60)) * 60,
            bus=draw(st.sampled_from(BUSES)),
            lon=draw(st.sampled_from(BUS_LONS)),
            congestion=draw(st.sampled_from((0, 1))),
        )
        events.append(move)
        facts.append(gps)
    for _ in range(draw(st.integers(0, 6))):
        events.append(crowd_event(
            draw(st.integers(1, HORIZON)),
            intersection=draw(st.sampled_from(("I1", "I2", "I9"))),
            value=draw(st.sampled_from(("positive", "negative"))),
        ))
    return events, facts


@pytest.mark.parametrize("interpreted_event", [None, "agree"])
def test_compiled_noisy_emits_the_interpreted_points(
    request, interpreted_event
):
    """With ``interpreted_event`` run by the interpreter, no firing
    pairs are recorded for it and the compiled ``noisy`` runs its
    interpreted bodies."""

    @_budget(request)
    @given(window=_windows())
    def check(window):
        events, facts = window
        topology = make_topology(n_intersections=2, spacing=SPACING)
        compiled, interpreted = (
            engine_class(
                build_traffic_definitions(topology, adaptive=True),
                window=WINDOW,
                step=STEP,
                params=default_traffic_params(),
            )
            for engine_class in (RTEC, ReferenceRTEC)
        )
        compiled._compiled.pop(interpreted_event, None)
        rule = compiled._compiled["noisy"]
        compared = []

        def derive(ctx, derive=rule.derive):
            streams = derive(ctx)
            lookup = streams["groundings"]
            got = [
                [
                    (lookup(code), time)
                    for code, time in zip(*(a.tolist() for a in streams[s]))
                ]
                for s in ("init", "term")
            ]
            definition = rule.definition
            assert got == [
                list(definition.initiations(ctx)),
                list(definition.terminations(ctx)),
            ]
            compared.append(streams)
            return streams

        rule.derive = derive
        compiled.feed_columns(SDEColumns.from_sdes(events, facts))
        interpreted.feed(events, facts)
        for ours, theirs in zip(
            compiled.run(HORIZON), interpreted.run(HORIZON)
        ):
            ours, theirs = ours.fluents["noisy"], theirs.fluents["noisy"]
            assert ours == theirs
            assert list(ours) == list(theirs)
        assert len(compared) == HORIZON // STEP

    check()
