"""SCATS vehicle-detector simulator.

Reproduces the fixed-sensor side of the Dublin input: "static sensors
mounted on various junctions — SCATS sensors — transmit every 6 minutes
information about traffic flow and density" as the instantaneous SDE
``traffic(Int, A, S, D, F)`` (paper, Section 4.3; the January-2013
dataset has 966 sensors).

Mediator behaviour is part of the model: the paper stresses that raw
readings pass through mediators that "apply filtering and aggregation
mechanisms, most of which are unknown", adding uncertainty.  The
simulator therefore (a) aggregates the true state over the reporting
period, (b) adds measurement noise, (c) delays arrival by a batching
latency, and (d) optionally makes some sensors *faulty* (stuck at a
free-flow reading), which produces genuine source disagreements.

Like the bus fleet, a stream is generated in two passes: the noise
and the batching latency of every reading are drawn first, sensor by
sensor from one ``random.Random`` (a stuck sensor draws no noise); the
readings themselves — three mediator samples of the ground truth's
field, bias, noise, Greenshields flow — are then computed as arrays.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.columns import EventColumns
from ..core.traffic import ScatsTopology
from .ground_truth import (
    DensityField,
    TrafficGroundTruth,
    greenshields_flow,
    greenshields_flows,
)

#: SCATS reporting period in seconds ("every six minutes").
SCATS_PERIOD_S = 360


@dataclass
class ScatsSensorSimulator:
    """Generates the ``traffic`` SDE stream of a SCATS deployment.

    Parameters
    ----------
    topology:
        The SCATS intersections (ids, positions, sensors).
    node_of:
        Mapping intersection id → street-network junction (from
        :func:`repro.dublin.network.place_scats_topology`).
    ground_truth:
        The true traffic state being measured.
    period:
        Reporting period in seconds (six minutes in Dublin).
    density_noise, flow_noise:
        Measurement noise standard deviations.
    fault_rate:
        Fraction of sensors stuck at a free-flow reading.
    max_arrival_delay:
        Mediator batching: arrival is delayed uniformly up to this.
    seed:
        Seed for noise, per-sensor offsets and fault selection.
    """

    topology: ScatsTopology
    node_of: Mapping[str, object]
    ground_truth: TrafficGroundTruth
    period: int = SCATS_PERIOD_S
    density_noise: float = 3.0
    flow_noise: float = 40.0
    fault_rate: float = 0.0
    max_arrival_delay: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError("fault rate must be within [0, 1]")
        rng = random.Random(self.seed)
        self._sensor_bias: dict[tuple, float] = {}
        self._sensor_offset: dict[tuple, int] = {}
        self._faulty: set[tuple] = set()
        for int_id in self.topology.ids():
            for sensor_key in self.topology.sensors_of(int_id):
                # Per-lane bias: approaches see slightly different load.
                self._sensor_bias[sensor_key] = rng.uniform(0.85, 1.15)
                # Spread reports across the period so the stream is
                # smooth rather than bursty.
                self._sensor_offset[sensor_key] = rng.randrange(self.period)
                if rng.random() < self.fault_rate:
                    self._faulty.add(sensor_key)

    @property
    def n_sensors(self) -> int:
        """Total number of vehicle detectors."""
        return len(self._sensor_bias)

    def faulty_sensors(self) -> set[tuple]:
        """The stuck sensors (ground truth for evaluations)."""
        return set(self._faulty)

    def columns(
        self, start: int, end: int, *, rng: Optional[random.Random] = None
    ) -> EventColumns:
        """The ``traffic`` SDEs with occurrence in ``[start, end)`` as
        one column block.

        Rows are generated sensor by sensor; callers needing global
        time order should sort (the RTEC engine sorts internally).

        ``rng`` is the explicit randomness source for measurement
        noise and mediator batching delays; when omitted a fresh
        seeded stream derived from the simulator seed is used, so the
        call is a pure function of ``(start, end, seed)``.  Global
        ``random`` state is never read.
        """
        if rng is None:
            rng = random.Random(self.seed + 1)
        # Pass 1: per reading, its sensor, its time and its draws.
        sensors = [
            (int_id, sensor_key)
            for int_id in self.topology.ids()
            for sensor_key in self.topology.sensors_of(int_id)
        ]
        emitters: list[int] = []
        occurred: list[int] = []
        density_noise: list[float] = []
        flow_noise: list[float] = []
        arrivals: list[int] = []
        for k, (__, sensor_key) in enumerate(sensors):
            faulty = sensor_key in self._faulty
            offset = self._sensor_offset[sensor_key]
            first = start + ((offset - start) % self.period)
            for t in range(first, end, self.period):
                emitters.append(k)
                occurred.append(t)
                if not faulty:
                    density_noise.append(rng.gauss(0.0, self.density_noise))
                    flow_noise.append(rng.gauss(0.0, self.flow_noise))
                arrivals.append(
                    t + rng.randrange(self.max_arrival_delay + 1)
                )
        sensor = np.array(emitters, dtype=np.int64)
        times = np.array(occurred, dtype=np.int64)

        # Pass 2: the measurements after mediator treatment.
        field = DensityField(
            self.ground_truth, max(start - (self.period - 1), 0), end
        )
        stuck = np.array(
            [key in self._faulty for __, key in sensors], dtype=bool
        )[sensor]
        node = np.array(
            [field.index[self.node_of[int_id]] for int_id, __ in sensors],
            dtype=np.int64,
        )[sensor]
        bias = np.array(
            [self._sensor_bias[key] for __, key in sensors]
        )[sensor]
        # Mediator aggregation: mean true density over the period.
        now, mid, early = (
            field.density(node, np.maximum(times - dt, 0))
            for dt in (0, self.period // 2, self.period - 1)
        )
        density_true = bias * (now + mid + early) / 3
        noise = np.zeros((2, len(times)))
        noise[:, ~stuck] = density_noise, flow_noise
        density = np.maximum(0.0, density_true + noise[0])
        flow = np.maximum(0.0, greenshields_flows(density_true) + noise[1])
        # A stuck sensor repeats a plausible free-flow report.
        density[stuck] = 12.0
        flow[stuck] = greenshields_flow(12.0)
        intersection, approach, lane = (
            np.fromiter(
                (key[part] for __, key in sensors),
                dtype=object,
                count=len(sensors),
            )[sensor]
            for part in range(3)
        )
        return EventColumns(
            "traffic",
            times,
            np.array(arrivals, dtype=np.int64),
            fields={
                "intersection": intersection,
                "approach": approach,
                "sensor": lane,
                "density": density,
                "flow": flow,
            },
        )
