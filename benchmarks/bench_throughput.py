"""Ingest-throughput gate: the columnar hot path vs the Dublin rate.

The paper's deployment receives "data from buses every 20 or 30
seconds" from the operating subset of a 942-bus fleet plus a SCATS
reading per sensor every six minutes — about one SDE every ~2 s
fleet-wide at the city scale the evaluation streams (Section 7.1).
A single-process recognition loop must comfortably outrun that rate
to leave headroom for redelivery storms, catch-up after an outage and
the later sharded deployment.

This bench drives the full columnar path end to end — array-native
batches built with :meth:`EventColumns.from_arrays` (no ``Event``
object exists before admission), one :class:`SDEColumns` hand-off per
recognition step, compiled rule evaluation over the working-memory
mirrors — and asserts the sustained ingest rate is at least
``REQUIRED_MULTIPLE`` times the paper's arrival rate.  A second pass
pins the interpreter (``compiled=False``) so the report shows what the
compiled path buys on identical input.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import RTEC
from repro.core.columns import EventColumns, SDEColumns
from repro.core.traffic import (
    build_traffic_definitions,
    default_traffic_params,
)
from repro.core.traffic.topology import Intersection, ScatsTopology

from conftest import bench_scale, emit

#: The paper's fleet-wide arrival rate: one SDE every ~2 seconds.
DUBLIN_SDE_RATE = 0.5
#: Required sustained ingest multiple over that rate (ISSUE 6 gate).
REQUIRED_MULTIPLE = 10.0

WINDOW_S = 600
STEP_S = 300
#: Per-sensor reading period of the synthetic stream (denser than the
#: paper's 6-minute SCATS cycle so the bench saturates the engine).
READ_PERIOD_S = 30


def _topology(n_intersections: int) -> ScatsTopology:
    """A synthetic SCATS deployment, two detectors per intersection."""
    intersections = []
    for i in range(n_intersections):
        int_id = f"I{i:03d}"
        intersections.append(
            Intersection(
                id=int_id,
                lon=-6.30 + 0.004 * (i % 20),
                lat=53.32 + 0.003 * (i // 20),
                sensors=(
                    (int_id, "N", "det1"),
                    (int_id, "S", "det2"),
                ),
            )
        )
    return ScatsTopology(intersections)


def _build_batches(
    topology: ScatsTopology, duration: int
) -> list[tuple[int, SDEColumns]]:
    """One array-native :class:`SDEColumns` batch per recognition step.

    Built entirely from numpy arrays: per sensor, a reading every
    ``READ_PERIOD_S`` seconds with density swinging through the
    congestion and trend thresholds so the compiled rules derive real
    CEs rather than skating over empty masks.
    """
    sensors = [
        key for int_id in topology.ids() for key in topology.sensors_of(int_id)
    ]
    n_sensors = len(sensors)
    ticks = np.arange(READ_PERIOD_S, duration + 1, READ_PERIOD_S, np.int64)
    n_ticks = len(ticks)
    # Row-major (tick, sensor) layout: each step's rows are contiguous.
    times = np.repeat(ticks, n_sensors)
    phase = np.arange(n_sensors, dtype=np.float64) * 0.7
    tick_angle = ticks.astype(np.float64) / 600.0
    density = 90.0 + 80.0 * np.sin(
        tick_angle[:, None] + phase[None, :]
    )
    flow = np.where(density > 120.0, 300.0, 900.0) + 2.0 * (
        density % 7.0
    )
    inter_col = [key[0] for key in sensors] * n_ticks
    approach_col = [key[1] for key in sensors] * n_ticks
    sensor_col = [key[2] for key in sensors] * n_ticks

    batches: list[tuple[int, SDEColumns]] = []
    rows_per_step = (STEP_S // READ_PERIOD_S) * n_sensors
    for start in range(0, n_ticks * n_sensors, rows_per_step):
        stop = min(start + rows_per_step, n_ticks * n_sensors)
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
        q = int(times[stop - 1])
        batches.append((q, SDEColumns(events=(block,), facts=())))
    return batches


def _make_engine(topology: ScatsTopology, compiled: bool) -> RTEC:
    definitions = build_traffic_definitions(
        topology,
        adaptive=False,
        noisy_variant="pessimistic",
        feeds=("scats",),
    )
    return RTEC(
        definitions,
        window=WINDOW_S,
        step=STEP_S,
        params=default_traffic_params(),
        compiled=compiled,
    )


def _ingest_pass(
    topology: ScatsTopology,
    batches: list[tuple[int, SDEColumns]],
    *,
    compiled: bool,
) -> dict:
    """Feed every step batch and query; return rate and output size."""
    engine = _make_engine(topology, compiled)
    n_sdes = sum(batch.n for _, batch in batches)
    n_points = 0
    t0 = time.perf_counter()
    for q, batch in batches:
        engine.feed_columns(batch)
        snapshot = engine.query(q)
        n_points += sum(len(v) for v in snapshot.occurrences.values())
        n_points += sum(
            len(il)
            for groups in snapshot.fluents.values()
            for il in groups.values()
        )
    elapsed = time.perf_counter() - t0
    return {
        "n_sdes": n_sdes,
        "elapsed_s": elapsed,
        "sde_per_s": n_sdes / elapsed if elapsed > 0 else float("inf"),
        "n_outputs": n_points,
    }


@pytest.mark.bench_smoke
def test_columnar_ingest_throughput(benchmark):
    """Sustained columnar ingest ≥ 10x the Dublin arrival rate."""
    scale = bench_scale()
    topology = _topology(max(int(60 * scale), 6))
    duration = max(int(3600 * min(scale * 4, 1.0)), 4 * STEP_S)
    batches = _build_batches(topology, duration)

    def run() -> tuple[dict, dict]:
        return (
            _ingest_pass(topology, batches, compiled=True),
            _ingest_pass(topology, batches, compiled=False),
        )

    columnar, interp = benchmark.pedantic(run, rounds=1, iterations=1)
    multiple = columnar["sde_per_s"] / DUBLIN_SDE_RATE
    speedup = (
        columnar["sde_per_s"] / interp["sde_per_s"]
        if interp["sde_per_s"] > 0
        else float("inf")
    )

    lines = [
        "Ingest throughput — columnar/compiled hot path "
        f"({columnar['n_sdes']} SDEs over {duration}s of stream, "
        f"{len(batches)} step batches)",
        f"{'path':<22} {'SDE/s':>12} {'wall (s)':>10} {'outputs':>9}",
        f"{'columnar+compiled':<22} {columnar['sde_per_s']:>12.0f} "
        f"{columnar['elapsed_s']:>10.3f} {columnar['n_outputs']:>9}",
        f"{'interpreter':<22} {interp['sde_per_s']:>12.0f} "
        f"{interp['elapsed_s']:>10.3f} {interp['n_outputs']:>9}",
        f"gate: {columnar['sde_per_s']:.0f} SDE/s = "
        f"{multiple:.0f}x the Dublin rate ({DUBLIN_SDE_RATE} SDE/s); "
        f"required >= {REQUIRED_MULTIPLE:.0f}x; "
        f"compiled speedup {speedup:.2f}x",
    ]
    emit("throughput.txt", lines)

    benchmark.extra_info["series"] = {
        "columnar": columnar,
        "interpreter": interp,
        "multiple": multiple,
    }

    # --- gate assertions --------------------------------------------------
    # 1. Both paths recognised the same number of output points (the
    #    cheap end-to-end parity signal; the full one is in tests/).
    assert columnar["n_outputs"] == interp["n_outputs"]
    assert columnar["n_outputs"] > 0
    # 2. The absolute throughput gate of ISSUE 6.
    assert multiple >= REQUIRED_MULTIPLE, (
        f"columnar ingest sustained only {columnar['sde_per_s']:.1f} "
        f"SDE/s = {multiple:.1f}x the Dublin rate "
        f"(required {REQUIRED_MULTIPLE:.0f}x)"
    )
