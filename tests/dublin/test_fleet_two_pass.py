"""What the fleet's two-pass generation rests on, and its edges.

``BusFleetSimulator.columns`` draws the whole emission schedule first
and computes the kinematics afterwards as arrays.  That is only the
per-emission loop's stream if no draw ever reads the traffic, which
the first test pins; the rest are the spans where a round-at-a-time
pass could go wrong — nothing to emit, one bus, buses that sit a span
out — with digests recorded from the per-emission loop (the commit
before the split), the tie-break a 10,000-bus fleet would lose if
the schedule compared bus numbers instead of id strings, and the padded
route lookup against the per-bus bisection it replaced.
"""

from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dublin import (
    BusFleetSimulator,
    Incident,
    TrafficGroundTruth,
    WeatherSlowdown,
    generate_street_network,
    make_lines,
)
from repro.dublin.buses import _RouteTables
from tests.golden.stream_identity import digest_records

START = 27000


@pytest.fixture(scope="module")
def network():
    return generate_street_network(rows=8, cols=8, seed=2)


def _fleet(network, truth=None, **kwargs):
    truth = truth or TrafficGroundTruth(network, seed=3, n_random_incidents=2)
    kwargs.setdefault("n_buses", 6)
    return BusFleetSimulator(
        network, truth, make_lines(network, 3, seed=4), seed=4, **kwargs
    )


def _first_emissions(fleet) -> list[int]:
    """Seconds into a span at which each bus first emits."""
    hi = fleet.emission_period[1]
    return sorted(bus.next_emission % hi for bus in fleet._buses)


def _digest(blocks) -> str:
    move, gps = blocks
    rows = np.arange(len(move))
    return digest_records(move.records(rows), gps.records(rows))


def _assert_typed(blocks, n):
    move, gps = blocks
    assert len(move) == len(gps) == n
    assert move.times.dtype == move.arrivals.dtype == np.int64
    assert {k: v.dtype for k, v in move.fields.items()} == {
        "bus": object, "line": object, "operator": object,
        "delay": np.float64,
    }
    assert gps.key_columns[0].dtype == object
    assert [gps.value_fields[name].dtype for name in (
        "lon", "lat", "direction", "congestion"
    )] == [np.float64, np.float64, np.int64, np.int64]


def test_the_schedule_never_reads_the_traffic(network):
    nodes = list(network.graph.nodes)
    calm = TrafficGroundTruth(network, seed=3, incidents=[])
    jammed = TrafficGroundTruth(
        network,
        seed=3,
        incidents=[
            Incident(node, start=START, duration=3600, severity=110.0)
            for node in nodes[::7]
        ],
        weather=(WeatherSlowdown(START + 300, START + 3000, 1.5),),
    )
    (move_a, gps_a), (move_b, gps_b) = (
        _fleet(network, truth, n_buses=20).columns(START, START + 3600)
        for truth in (calm, jammed)
    )
    # Who emits when, and when the report arrives, is the same stream
    # of draws in both cities ...
    assert np.array_equal(move_a.times, move_b.times)
    assert np.array_equal(move_a.arrivals, move_b.arrivals)
    assert move_a.fields["bus"].tolist() == move_b.fields["bus"].tolist()
    # ... while everything the traffic decides differs.
    assert not np.array_equal(move_a.fields["delay"], move_b.fields["delay"])
    assert not np.array_equal(
        gps_a.value_fields["lon"], gps_b.value_fields["lon"]
    )
    assert not np.array_equal(
        gps_a.value_fields["congestion"], gps_b.value_fields["congestion"]
    )


#: Fleet keywords and the span, in seconds after ``START``; a name
#: stands for a second read off the fleet's first emissions.
EDGES = {
    "end_before_start": ({}, 600, 0),
    "end_equals_start": ({}, 600, 600),
    "before_the_first_emission": ({}, 0, "first"),
    "some_buses_sit_it_out": ({}, 0, "median"),
    "one_bus": ({"n_buses": 1}, 0, 900),
    "one_bus_one_emission": ({"n_buses": 1}, 0, "after_first"),
}

#: ``(rows, digest)`` of each edge, recorded from the per-emission loop.
EMPTY = "3ebb685fd55a2dc4f633ce435f2c13c0ef822363260deafed9ab731c1553a290"
RECORDED = {
    "end_before_start": (0, EMPTY),
    "end_equals_start": (0, EMPTY),
    "before_the_first_emission": (0, EMPTY),
    "some_buses_sit_it_out": (
        2, "c0121552eeeb1e59b434ff01ff28b63e7a92421fb5b47e5830bef56c9c5d97de"
    ),
    "one_bus": (
        36, "53cd69c510da624efd32928e01acfedc4b2b79ff2893b910c5aa9729ae82a29a"
    ),
    "one_bus_one_emission": (
        1, "f094a8e864524e7c2c2248b0ecfe7617768dba918426a6cc9e479c0a7125ba06"
    ),
}


def _edge_blocks(network, edge):
    kwargs, lo, hi = EDGES[edge]
    fleet = _fleet(network, **kwargs)
    first = _first_emissions(fleet)
    assert first[0] > 0, "pick a seed whose earliest bus does not start at 0"
    hi = {
        "first": first[0],
        "median": first[len(first) // 2],
        "after_first": first[0] + 1,
    }.get(hi, hi)
    return fleet, fleet.columns(START + lo, START + hi)


@pytest.mark.parametrize("edge", list(EDGES))
def test_edge_spans_give_the_loops_blocks(network, edge):
    fleet, blocks = _edge_blocks(network, edge)
    rows, digest = RECORDED[edge]
    _assert_typed(blocks, rows)
    assert _digest(blocks) == digest
    if edge == "some_buses_sit_it_out":
        emitted = set(blocks[0].fields["bus"].tolist())
        assert 0 < len(emitted) < len(fleet._buses)


def test_equal_times_pop_in_id_string_order(network):
    fleet = _fleet(network, n_buses=10_001)
    move, __ = fleet.columns(START, START + 31)
    times = move.times.tolist()
    ids = move.fields["bus"].tolist()
    assert ids.count("B10000") >= 1
    ties = [
        (a, b)
        for (s, a), (t, b) in zip(zip(times, ids), zip(times[1:], ids[1:]))
        if s == t
    ]
    assert all(a < b for a, b in ties)
    # "B10000" sorts between "B1000" and "B1001": the order a sort by
    # bus *numbers* would not give.
    at = ids.index("B10000")
    same_time = [b for t, b in zip(times, ids) if t == times[at]]
    assert same_time == sorted(same_time)
    assert any(int(b[1:]) < 10_000 and b > "B10000" for b in same_time)
    assert same_time != sorted(same_time, key=lambda b: int(b[1:]))


#: Two routes, ragged; the second has a zero-length segment.
ROUTES = [
    ([0.0, 120.5, 300.0, 310.25, 990.0], [5, 6, 7, 8, 9]),
    ([0.0, 80.0, 80.0, 200.0], [1, 2, 3, 4]),
]


def _tables() -> _RouteTables:
    shape = (len(ROUTES), max(len(cum) for cum, __ in ROUTES))
    tables = _RouteTables(
        length=np.array([cum[-1] for cum, __ in ROUTES]),
        cumulative=np.full(shape, np.inf),
        lon=np.zeros(shape),
        lat=np.zeros(shape),
        node=np.zeros(shape, dtype=np.int64),
    )
    for row, (cum, nodes) in enumerate(ROUTES):
        tables.cumulative[row, : len(cum)] = cum
        tables.lon[row, : len(cum)] = [-6.3 + 0.013 * v for v in nodes]
        tables.lat[row, : len(cum)] = [53.3 + 0.007 * v * v for v in nodes]
        tables.node[row, : len(cum)] = nodes
    return tables


def _locate_scalar(tables, line, direction, offset):
    """The per-bus lookup the array form replaced: a bisection of one
    route's cumulative distances."""
    cumulative, nodes = ROUTES[line]
    length = cumulative[-1]
    pos = length - offset if direction == 1 else offset
    pos = min(max(pos, 0.0), length)
    i = bisect_left(cumulative, pos, 1) - 1
    seg_len = cumulative[i + 1] - cumulative[i]
    frac = 0.0 if seg_len == 0 else (pos - cumulative[i]) / seg_len
    lon_a, lon_b = tables.lon[line, i].item(), tables.lon[line, i + 1].item()
    lat_a, lat_b = tables.lat[line, i].item(), tables.lat[line, i + 1].item()
    return (
        lon_a + frac * (lon_b - lon_a),
        lat_a + frac * (lat_b - lat_a),
        nodes[i] if frac < 0.5 else nodes[i + 1],
    )


_on_a_stop = st.sampled_from(sorted({d for cum, __ in ROUTES for d in cum}))


@given(
    st.lists(
        st.tuples(
            st.integers(0, len(ROUTES) - 1),
            st.integers(0, 1),
            st.one_of(_on_a_stop, st.floats(-5.0, 1000.0)),
        ),
        max_size=30,
    )
)
def test_locate_equals_the_bisection(buses):
    tables = _tables()
    line, direction, offset = (
        np.array([bus[k] for bus in buses], dtype=dtype)
        for k, dtype in enumerate((np.int64, np.int64, np.float64))
    )
    lon, lat, node = tables.locate(line, direction, offset)
    expected = [_locate_scalar(tables, *bus) for bus in buses]
    assert list(zip(lon.tolist(), lat.tolist(), node.tolist())) == expected
