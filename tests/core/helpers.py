"""Shared builders for the traffic CE rule tests."""

import numpy as np

from repro.core import RTEC, Event, FluentFact
from repro.core.columns import EventColumns
from repro.core.traffic import (
    Intersection,
    ScatsTopology,
    build_traffic_definitions,
    default_traffic_params,
)

LON, LAT = -6.26, 53.35
#: ~one metre in degrees of latitude.
M = 1 / 111_195


def make_topology(n_intersections=1, sensors_per_intersection=2, spacing=0.02):
    """A line of intersections ``I1..In`` spaced well apart."""
    intersections = []
    for i in range(1, n_intersections + 1):
        int_id = f"I{i}"
        sensors = tuple(
            (int_id, "A", f"S{j}") for j in range(1, sensors_per_intersection + 1)
        )
        intersections.append(
            Intersection(int_id, LON + (i - 1) * spacing, LAT, sensors)
        )
    return ScatsTopology(intersections, close_radius_m=150.0)


def traffic_event(t, intersection="I1", sensor="S1", density=20.0, flow=900.0,
                  approach="A", arrival=None):
    """A SCATS ``traffic(Int, A, S, D, F)`` SDE."""
    return Event(
        "traffic",
        t,
        {
            "intersection": intersection,
            "approach": approach,
            "sensor": sensor,
            "density": density,
            "flow": flow,
        },
        arrival=arrival,
    )


CONGESTED = dict(density=90.0, flow=300.0)
FREE = dict(density=20.0, flow=900.0)


def bus_report(t, bus="B1", lon=LON, lat=LAT, congestion=0, delay=0,
               line="L1", operator="O1", direction=0, arrival=None):
    """A bus ``move`` SDE plus its paired ``gps`` fluent fact."""
    move = Event(
        "move",
        t,
        {"bus": bus, "line": line, "operator": operator, "delay": delay},
        arrival=arrival,
    )
    gps = FluentFact(
        "gps",
        (bus,),
        {"lon": lon, "lat": lat, "direction": direction,
         "congestion": congestion},
        t,
        arrival=arrival,
    )
    return move, gps


def crowd_event(t, intersection="I1", value="negative", lon=LON, lat=LAT):
    """A ``crowd(LonInt, LatInt, Val)`` SDE from the crowdsourcing side."""
    return Event(
        "crowd",
        t,
        {"intersection": intersection, "lon": lon, "lat": lat, "value": value},
    )


def make_engine(topology=None, *, adaptive=False, noisy_variant="crowd",
                window=3600, step=3600, params=None):
    """An RTEC engine with the full traffic definition suite."""
    topo = topology or make_topology()
    merged = default_traffic_params()
    merged.update(params or {})
    definitions = build_traffic_definitions(
        topo, adaptive=adaptive, noisy_variant=noisy_variant
    )
    return RTEC(definitions, window=window, step=step, params=merged)


def feed_reports(engine, reports):
    """Feed ``(move, gps)`` pairs produced by :func:`bus_report`."""
    engine.feed(
        events=[m for m, _ in reports],
        facts=[g for _, g in reports],
    )


def _numeric_column(values) -> np.ndarray:
    """``numeric=`` shorthand: integers stay ``int64``, the rest is
    ``float64``."""
    col = np.asarray(values)
    return col.astype(np.int64 if col.dtype.kind in "iub" else np.float64)


def event_columns(etype, times, *, arrivals=None, numeric=None, extra=None):
    """An :class:`EventColumns` block from raw arrays (anything
    :func:`numpy.asarray` takes).

    ``arrivals`` defaults to the occurrence times; ``numeric`` columns
    become ``float64`` — or ``int64`` when handed integers — and
    ``extra`` columns stay Python objects (strings, ids).  Payload keys
    come in that order; all columns must share one length.
    """
    times = np.asarray(times, dtype=np.int64)
    arr = times if arrivals is None else np.asarray(arrivals, dtype=np.int64)
    fields = {
        name: _numeric_column(col) for name, col in (numeric or {}).items()
    }
    fields.update(extra or {})
    return EventColumns(etype, times, arr, fields=fields)
