"""The compiled derived events hand their occurrences over in order.

``RTEC`` keeps a derived event's occurrences in ``(time, key)`` order,
tied ones in the order the rule body found them.  The compiled
``agree``/``disagree``/``delayIncrease`` produce that order themselves
(one ``np.lexsort`` over the pair's time and a rank of its key among
the window's keys); only the interpreter's lists are sorted by the
engine.  On drawn windows the compiled engine's lists must be sorted
already — ``sorted(..., key=attrgetter("time", "key"))`` changes
nothing — and equal, order included, to those of ``ReferenceRTEC``,
whose interpreted bodies the engine sorts stably.

The draws make the ranks matter: the token table numbers the buses in
a drawn order (not their string order) before the first row arrives,
intersection ids are listed out of string order (``J2``, ``J10``,
``J1``: position order, string order and numeric order all differ),
and a bus half-way between two intersections is close to both, so
its report ties with itself on ``(time, (bus,))`` in ``agree``;
duplicated reports tie ``disagree``'s ``(bus, intersection)`` keys
too.  Tier-1 runs a fixed derandomised budget; given
``--hypothesis-seed`` (CI's ``chaos`` job draws one) a larger one.
"""

from operator import attrgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RTEC, Event
from repro.core.columns import SDEColumns
from repro.core.reference import ReferenceRTEC
from repro.core.traffic import (
    Intersection,
    ScatsTopology,
    build_traffic_definitions,
    default_traffic_params,
)

from .helpers import LAT, LON, bus_report

WINDOW, STEP = 600, 300
HORIZON = 4 * STEP
#: ~100 m apart: a bus half-way between two is close to both.
SPACING = 0.0015
IDS = ("J2", "J10", "J1")
BUSES = ("B10", "B2", "B1", "b0", "B9")
BUS_LONS = (LON, LON + SPACING / 2, LON + 1.5 * SPACING, LON + 0.1)
EVENTS = ("agree", "disagree", "delayIncrease")


def _budget(request):
    seeded = request.config.getoption("hypothesis_seed", None) is not None
    return settings(
        max_examples=150 if seeded else 25,
        derandomize=not seeded,
        deadline=None,
    )


def _topology():
    return ScatsTopology(
        [
            Intersection(int_id, LON + i * SPACING, LAT, ((int_id, "A", "S1"),))
            for i, int_id in enumerate(IDS)
        ],
        close_radius_m=150.0,
    )


@st.composite
def _windows(draw):
    """Bus reports on few time-points, duplicated at times, and SCATS
    readings either side of the congestion thresholds."""
    events, facts = [], []
    for _ in range(draw(st.integers(0, 12))):
        t = draw(st.integers(1, HORIZON))
        congested = draw(st.booleans())
        events.append(Event(
            "traffic",
            t,
            {
                "intersection": draw(st.sampled_from(IDS)),
                "approach": "A",
                "sensor": "S1",
                "density": 90.0 if congested else 20.0,
                "flow": 300.0 if congested else 900.0,
            },
        ))
    for _ in range(draw(st.integers(0, 24))):
        t = draw(st.integers(1, HORIZON // 60)) * 60
        move, gps = bus_report(
            t,
            bus=draw(st.sampled_from(BUSES)),
            lon=draw(st.sampled_from(BUS_LONS)),
            congestion=draw(st.sampled_from((0, 1))),
            delay=draw(st.integers(0, 400)),
        )
        copies = draw(st.sampled_from((1, 1, 2)))
        events.extend([move] * copies)
        facts.extend([gps] * copies)
    return events, facts


def test_compiled_occurrences_arrive_in_occurrence_order(request):
    @_budget(request)
    @given(window=_windows(), bus_order=st.permutations(BUSES))
    def check(window, bus_order):
        events, facts = window
        topology = _topology()
        engines = [
            engine_class(
                build_traffic_definitions(topology, adaptive=True),
                window=WINDOW,
                step=STEP,
                params=default_traffic_params(),
            )
            for engine_class in (RTEC, ReferenceRTEC)
        ]
        compiled, interpreted = engines
        compiled._wm.tokens.encode([(bus,) for bus in bus_order])
        compiled.feed_columns(SDEColumns.from_sdes(events, facts))
        interpreted.feed(events, facts)
        for ours, theirs in zip(
            compiled.run(HORIZON), interpreted.run(HORIZON)
        ):
            for name in EVENTS:
                got = ours.occurrences[name]
                assert got == sorted(got, key=attrgetter("time", "key"))
                assert got == theirs.occurrences[name]

    check()
