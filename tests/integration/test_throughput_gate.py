"""Tier-1 throughput gate: the columnar path must outrun Dublin.

A miniature small enough to run on every PR: array-native batches (no
``Event`` object before admission) — SCATS readings and a bus fleet
reporting ``move`` + ``gps`` beside the intersections — are fed step
by step into an engine running the self-adaptive suite, and
the sustained ingest rate must clear ``REQUIRED_MULTIPLE`` times the
paper's fleet-wide arrival rate of one SDE every ~2 s.  The margin is
three orders of magnitude on any hardware, so the gate only trips on
a genuine hot-path catastrophe (e.g. an accidental O(n²) admission or
a per-row Python round-trip sneaking back in), not on CI noise.  What
a change costs or gains is read off the end-to-end benchmark
(``benchmarks/e2e/run.py --compare``).
"""

import time

import numpy as np
import pytest

from repro.core import RTEC
from repro.core.columns import EventColumns, FactColumns, SDEColumns
from repro.core.reference import ReferenceRTEC
from repro.core.traffic import build_traffic_definitions, default_traffic_params

from tests.core.helpers import make_topology

DUBLIN_SDE_RATE = 0.5
REQUIRED_MULTIPLE = 10.0

WINDOW_S = 600
STEP_S = 300
READ_PERIOD_S = 30
DURATION_S = 6 * STEP_S


def _step_batches(topology):
    sensors = [
        key
        for int_id in topology.ids()
        for key in topology.sensors_of(int_id)
    ]
    n_sensors = len(sensors)
    ticks = np.arange(READ_PERIOD_S, DURATION_S + 1, READ_PERIOD_S, np.int64)
    times = np.repeat(ticks, n_sensors)
    phase = np.arange(n_sensors, dtype=np.float64)
    density = 90.0 + 80.0 * np.sin(
        (ticks.astype(np.float64) / 600.0)[:, None] + phase[None, :] * 0.7
    )
    flow = np.where(density > 120.0, 300.0, 900.0)
    inter_col = [k[0] for k in sensors] * len(ticks)
    approach_col = [k[1] for k in sensors] * len(ticks)
    sensor_col = [k[2] for k in sensors] * len(ticks)
    # The bus fleet: two buses per intersection, each reporting beside
    # it every tick.  A bus says "congested" on its own slow cycle, so
    # it agrees with the sensors at times and disagrees at others; its
    # delay climbs in steps that trip delayIncrease.
    stops = [topology.location(int_id) for int_id in topology.ids()]
    n_buses = 2 * len(stops)
    bus = np.arange(n_buses)
    bus_times = np.repeat(ticks, n_buses)
    bus_ids = [f"B{b}" for b in bus] * len(ticks)
    tick = np.repeat(np.arange(len(ticks)), n_buses)
    fleet = np.tile(bus, len(ticks))
    lon = np.array([stops[b % len(stops)][0] for b in fleet]) + 2e-4
    lat = np.array([stops[b % len(stops)][1] for b in fleet])
    congestion = ((tick + fleet) // 7) % 2
    delay = ((tick + fleet) % 5) * 70
    rows_per_step = (STEP_S // READ_PERIOD_S) * n_sensors
    bus_rows_per_step = (STEP_S // READ_PERIOD_S) * n_buses
    batches = []
    for step, start in enumerate(range(0, len(times), rows_per_step)):
        stop = min(start + rows_per_step, len(times))
        cut = slice(step * bus_rows_per_step, (step + 1) * bus_rows_per_step)
        move = EventColumns.from_arrays(
            "move",
            bus_times[cut],
            numeric={"delay": delay[cut]},
            extra={
                "bus": bus_ids[cut],
                "line": ["L1"] * len(bus_ids[cut]),
                "operator": ["O1"] * len(bus_ids[cut]),
            },
        )
        gps = FactColumns(
            "gps",
            bus_times[cut],
            bus_times[cut],
            key_columns=[bus_ids[cut]],
            value_fields={
                "lon": lon[cut],
                "lat": lat[cut],
                "direction": np.zeros(len(lon[cut]), dtype=np.int64),
                "congestion": congestion[cut],
            },
        )
        block = EventColumns.from_arrays(
            "traffic",
            times[start:stop],
            numeric={
                "density": density.ravel()[start:stop],
                "flow": flow.ravel()[start:stop],
            },
            extra={
                "intersection": inter_col[start:stop],
                "approach": approach_col[start:stop],
                "sensor": sensor_col[start:stop],
            },
        )
        batches.append(
            (
                int(times[stop - 1]),
                SDEColumns(events=(block, move), facts=(gps,)),
            )
        )
    return batches


def _ingest(topology, batches, engine_class=RTEC):
    engine = engine_class(
        build_traffic_definitions(
            topology, adaptive=True, noisy_variant="pessimistic"
        ),
        window=WINDOW_S,
        step=STEP_S,
        params=default_traffic_params(),
    )
    outputs = {}
    t0 = time.perf_counter()
    for q, batch in batches:
        engine.feed_columns(batch)
        snapshot = engine.query(q)
        for name, occurrences in snapshot.occurrences.items():
            outputs[name] = outputs.get(name, 0) + len(occurrences)
        for name, groups in snapshot.fluents.items():
            outputs[name] = outputs.get(name, 0) + sum(
                len(il) for il in groups.values()
            )
    return time.perf_counter() - t0, outputs


@pytest.mark.bench_smoke
def test_columnar_ingest_beats_dublin_rate():
    topology = make_topology(n_intersections=8)
    batches = _step_batches(topology)
    n_sdes = sum(batch.n for _, batch in batches)
    assert n_sdes > 0

    elapsed, outputs = _ingest(topology, batches)
    silent = [
        name
        for name in (
            "scatsCongestion", "delayIncrease", "disagree", "agree",
            "busCongestion", "noisy",
        )
        if not outputs.get(name)
    ]
    assert not silent, f"gate stream never fires {silent} — thresholds drifted"
    achieved = n_sdes / elapsed if elapsed > 0 else float("inf")
    multiple = achieved / DUBLIN_SDE_RATE
    assert multiple >= REQUIRED_MULTIPLE, (
        f"columnar ingest sustained {achieved:.1f} SDE/s = "
        f"{multiple:.1f}x Dublin (required {REQUIRED_MULTIPLE:.0f}x)"
    )


@pytest.mark.bench_smoke
def test_gate_stream_parity_compiled_vs_interpreter():
    """The gate's own stream recognises on the engine what it does on
    the interpreting reference engine — the throughput number measures
    the same computation."""
    topology = make_topology(n_intersections=4)
    batches = _step_batches(topology)
    _, compiled_outputs = _ingest(topology, batches)
    _, interp_outputs = _ingest(topology, batches, ReferenceRTEC)
    assert compiled_outputs == interp_outputs
