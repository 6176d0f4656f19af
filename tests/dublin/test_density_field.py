"""The array form of the ground truth equals the scalar, bit for bit.

``TrafficGroundTruth.density`` is the stated model; the simulators read
it through ``DensityField``.  Everything here compares the two with
``==`` — a last-place difference in one cell would move a stream
digest — on a city where every term of the density is live: incidents
(one strong enough to reach the jam clamp, one negative enough to
reach zero), a stadium surge and a weather window.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dublin import (
    JAM_DENSITY_VEH_KM,
    DensityField,
    Incident,
    Surge,
    TrafficGroundTruth,
    WeatherSlowdown,
    generate_street_network,
    greenshields_flow,
    greenshields_speed,
)
from repro.dublin.ground_truth import greenshields_flows, greenshields_speeds

SPAN = (27000, 31000)


@pytest.fixture(scope="module")
def truth():
    network = generate_street_network(rows=8, cols=8, seed=2)
    nodes = list(network.graph.nodes)
    return TrafficGroundTruth(
        network,
        seed=3,
        incidents=[
            Incident(nodes[10], start=27300, duration=900, severity=200.0),
            Incident(nodes[11], start=27800, duration=1200, severity=65.0),
            Incident(nodes[40], start=28000, duration=600, severity=-90.0),
            # Over before the span starts: the field leaves it out.
            Incident(nodes[20], start=20000, duration=600),
        ],
        surges=(
            Surge(nodes[30], start=28200, duration=1000, magnitude=55.0),
        ),
        weather=(WeatherSlowdown(start=27600, end=29500, density_factor=1.3),),
    )


@pytest.fixture(scope="module")
def field(truth):
    return DensityField(truth, *SPAN)


def _edge_times(truth) -> list[int]:
    """First and last second of every window, the seconds just outside
    it, and the corners of the surge's ramp."""
    times = set()
    for incident in truth.incidents:
        stop = incident.start + incident.duration
        times |= {incident.start - 1, incident.start, stop - 1, stop}
    for surge in truth.surges:
        stop = surge.start + surge.duration
        edge = surge.duration // 4
        times |= {surge.start - 1, surge.start, stop - 1, stop}
        times |= {surge.start + edge + d for d in (-1, 0, 1)}
        times |= {stop - edge + d for d in (-1, 0, 1)}
    for window in truth.weather:
        times |= {window.start - 1, window.start, window.end - 1, window.end}
    return sorted(t for t in times if SPAN[0] <= t < SPAN[1])


def _special_nodes(truth, field) -> list[int]:
    """Epicentres and their neighbours, the venue and its catchment."""
    graph = truth.network.graph
    special = set()
    for incident in truth.incidents:
        special |= {incident.node, *graph.neighbors(incident.node)}
    for surge in truth.surges:
        special |= set(truth._hops_from(surge.node, surge.radius_hops + 1))
    return sorted(field.index[node] for node in special)


def _assert_equal_to_the_scalar(truth, field, node, t):
    node = np.asarray(node, dtype=np.int64)
    t = np.asarray(t, dtype=np.int64)
    cells = [(field.nodes[n], s) for n, s in zip(node.tolist(), t.tolist())]
    density = field.density(node, t)
    assert density.dtype == np.float64
    assert density.tolist() == [truth.density(v, s) for v, s in cells]
    assert field.speed(node, t).tolist() == [
        truth.speed(v, s) for v, s in cells
    ]
    assert field.is_congested(node, t).tolist() == [
        truth.is_congested(v, s) for v, s in cells
    ]
    return density


def test_every_edge_at_every_special_node(truth, field):
    times = _edge_times(truth)
    nodes = _special_nodes(truth, field)
    assert len(times) >= 20 and len(nodes) >= 15
    node, t = np.meshgrid(nodes, times)
    density = _assert_equal_to_the_scalar(
        truth, field, node.ravel(), t.ravel()
    )
    # Both clamps are on the path.
    assert density.min() == 0.0
    assert density.max() == JAM_DENSITY_VEH_KM


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_batches_equal_the_scalar(truth, field, data):
    n_nodes = len(field.nodes)
    node = st.one_of(
        st.sampled_from(_special_nodes(truth, field)),
        st.integers(0, n_nodes - 1),
    )
    t = st.one_of(
        st.sampled_from(_edge_times(truth)),
        st.integers(SPAN[0], SPAN[1] - 1),
    )
    cells = data.draw(st.lists(st.tuples(node, t), max_size=40))
    _assert_equal_to_the_scalar(
        truth, field, [c[0] for c in cells], [c[1] for c in cells]
    )


def test_a_time_outside_the_span_is_refused(field):
    node = np.zeros(1, dtype=np.int64)
    for t in (SPAN[0] - 1, SPAN[1]):
        with pytest.raises(ValueError, match="outside the field's span"):
            field.density(node, np.array([t]))


@given(
    st.lists(
        st.floats(-50.0, 300.0, allow_nan=False), min_size=1, max_size=30
    )
)
def test_greenshields_arrays_equal_the_scalars(densities):
    array = np.array(densities)
    assert greenshields_speeds(array).tolist() == [
        greenshields_speed(d) for d in densities
    ]
    assert greenshields_flows(array).tolist() == [
        greenshields_flow(d) for d in densities
    ]
