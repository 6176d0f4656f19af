"""Bus fleet simulator — the mobile-sensor side of the Dublin input.

Reproduces the bus probe stream of formalisation (1): each operating
bus emits, every 20–30 seconds, a ``move(Bus, Line, Operator, Delay)``
SDE paired with a ``gps(Bus, Lon, Lat, Direction, Congestion)`` fluent
fact at the same time-point (the January-2013 dataset has 942 buses).

Buses shuttle along their line's route (a shortest path between two
terminals), move at the ground truth's local speed — so they slow down
inside congestion and their schedule ``Delay`` grows, producing the
``delayIncrease`` CEs — and report the congestion bit from the true
state at their position.

Data veracity is modelled explicitly: a configurable fraction of buses
is *unreliable* and reports a stuck or inverted congestion bit, which
is exactly the behaviour the self-adaptive recognition (rule-sets
(4)/(5)) must detect and discard.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.columns import EventColumns, FactColumns
from ..core.events import Event, FluentFact
from .ground_truth import FREE_FLOW_SPEED_KMH, TrafficGroundTruth
from .network import StreetNetwork

#: Bus emission period bounds in seconds ("every 20-30 sec").
EMISSION_PERIOD_S = (20, 30)

#: Nominal scheduled speed used for the Delay attribute (km/h).
SCHEDULED_SPEED_KMH = 0.8 * FREE_FLOW_SPEED_KMH


@dataclass(frozen=True)
class BusLine:
    """A bus line: an id, an operator, and a route over junctions."""

    line_id: str
    operator: str
    route: tuple

    def __post_init__(self) -> None:
        if len(self.route) < 2:
            raise ValueError("a route needs at least two junctions")


def make_lines(
    network: StreetNetwork,
    n_lines: int,
    *,
    seed: int = 0,
    min_route_len: int = 8,
) -> list[BusLine]:
    """Create ``n_lines`` bus lines as shortest paths between distant
    junctions (retrying until the route is long enough)."""
    if n_lines <= 0:
        raise ValueError("need at least one line")
    rng = random.Random(seed)
    nodes = list(network.graph.nodes)
    operators = ("DublinBus", "GoAhead", "BusEireann")
    lines: list[BusLine] = []
    attempts = 0
    while len(lines) < n_lines:
        attempts += 1
        if attempts > n_lines * 200:
            raise RuntimeError(
                "could not find enough long routes; lower min_route_len"
            )
        origin, destination = rng.sample(nodes, 2)
        route = network.shortest_path(origin, destination)
        if len(route) < min_route_len:
            continue
        lines.append(
            BusLine(
                line_id=f"L{len(lines):03d}",
                operator=operators[len(lines) % len(operators)],
                route=tuple(route),
            )
        )
    return lines


@dataclass
class _BusState:
    """Kinematic state of one simulated bus."""

    bus_id: str
    line: BusLine
    direction: int  # 0 = forwards along the route, 1 = backwards
    position_m: float  # distance along the (directed) route
    next_emission: int
    unreliable_mode: str  # "ok", "stuck_congested", "inverted"
    distance_travelled_m: float = 0.0
    started_at: int = 0


class BusFleetSimulator:
    """Generates the ``move``/``gps`` stream of a bus fleet.

    Parameters
    ----------
    network, ground_truth:
        The city and its true traffic state.
    lines:
        Bus lines; buses are assigned round-robin.
    n_buses:
        Fleet size (942 in the Dublin dataset).
    unreliable_fraction:
        Fraction of buses with a corrupted congestion bit.
    unreliable_mode:
        ``"stuck_congested"`` (always reports congestion) or
        ``"inverted"`` (reports the opposite of the truth).
    emission_period:
        Bounds of the per-emission interval in seconds.
    max_arrival_delay:
        Most emissions arrive within a few seconds, but a
        ``late_fraction`` of them is delayed up to this bound —
        exercising the paper's window-larger-than-step design.
    seed:
        Master seed; the whole stream is deterministic.
    """

    def __init__(
        self,
        network: StreetNetwork,
        ground_truth: TrafficGroundTruth,
        lines: Sequence[BusLine],
        *,
        n_buses: int = 942,
        unreliable_fraction: float = 0.0,
        unreliable_mode: str = "stuck_congested",
        emission_period: tuple[int, int] = EMISSION_PERIOD_S,
        max_arrival_delay: int = 120,
        late_fraction: float = 0.05,
        seed: int = 0,
    ):
        if not lines:
            raise ValueError("need at least one line")
        if n_buses <= 0:
            raise ValueError("need at least one bus")
        if not 0.0 <= unreliable_fraction <= 1.0:
            raise ValueError("unreliable fraction must be within [0, 1]")
        if unreliable_mode not in ("stuck_congested", "inverted"):
            raise ValueError(f"unknown unreliable mode: {unreliable_mode!r}")
        lo, hi = emission_period
        if lo <= 0 or hi < lo:
            raise ValueError("emission period must satisfy 0 < lo <= hi")
        self.network = network
        self.ground_truth = ground_truth
        self.lines = list(lines)
        self.emission_period = emission_period
        self.max_arrival_delay = max_arrival_delay
        self.late_fraction = late_fraction
        self.seed = seed

        self._route_geometry_cache: dict[str, tuple[list, list[float]]] = {}
        rng = random.Random(seed)
        n_unreliable = round(n_buses * unreliable_fraction)
        unreliable_ids = set(rng.sample(range(n_buses), n_unreliable))
        self._buses: list[_BusState] = []
        for i in range(n_buses):
            line = self.lines[i % len(self.lines)]
            self._buses.append(
                _BusState(
                    bus_id=f"B{i:04d}",
                    line=line,
                    direction=rng.randint(0, 1),
                    position_m=rng.uniform(
                        0.0, self._route_length(line)
                    ),
                    next_emission=rng.randint(0, hi),
                    unreliable_mode=(
                        unreliable_mode if i in unreliable_ids else "ok"
                    ),
                )
            )
        #: Frozen initial kinematics, restored at the top of every
        #: :meth:`events` call so the stream is a pure function of
        #: ``(start, end, seed)`` — repeated generation from one fleet
        #: object is byte-identical (checkpoint/resume and the scenario
        #: round-trip tests rely on this).
        self._initial_states: list[tuple[int, float, int]] = [
            (bus.direction, bus.position_m, bus.next_emission)
            for bus in self._buses
        ]

    # ------------------------------------------------------------------
    def unreliable_buses(self) -> set[str]:
        """Ids of the corrupted buses (evaluation ground truth)."""
        return {
            b.bus_id for b in self._buses if b.unreliable_mode != "ok"
        }

    def _route_geometry(self, line: BusLine) -> tuple[list, list[float]]:
        """Route nodes and cumulative distances (cached per line)."""
        if line.line_id not in self._route_geometry_cache:
            nodes = list(line.route)
            cumulative = [0.0]
            for a, b in zip(nodes, nodes[1:]):
                cumulative.append(
                    cumulative[-1]
                    + self.network.graph.edges[a, b]["length_m"]
                )
            self._route_geometry_cache[line.line_id] = (nodes, cumulative)
        return self._route_geometry_cache[line.line_id]

    def _route_length(self, line: BusLine) -> float:
        __, cumulative = self._route_geometry(line)
        return cumulative[-1]

    def _locate(self, bus: _BusState) -> tuple[float, float, object]:
        """Current (lon, lat, nearest route node) of a bus."""
        nodes, cumulative = self._route_geometry(bus.line)
        length = cumulative[-1]
        pos = bus.position_m
        if bus.direction == 1:
            pos = length - pos
        pos = min(max(pos, 0.0), length)
        # The segment containing `pos`: the first whose end reaches it.
        i = bisect_left(cumulative, pos, 1) - 1
        seg_len = cumulative[i + 1] - cumulative[i]
        frac = 0.0 if seg_len == 0 else (pos - cumulative[i]) / seg_len
        lon_a, lat_a = self.network.position(nodes[i])
        lon_b, lat_b = self.network.position(nodes[i + 1])
        lon = lon_a + frac * (lon_b - lon_a)
        lat = lat_a + frac * (lat_b - lat_a)
        nearest = nodes[i] if frac < 0.5 else nodes[i + 1]
        return lon, lat, nearest

    def _advance(self, bus: _BusState, dt: int, t: int) -> None:
        """Move a bus for ``dt`` seconds at the local true speed."""
        __, __, node = self._locate(bus)
        speed_ms = max(
            self.ground_truth.speed(node, t) / 3.6, 1.0
        )  # floor: buses crawl, never stall completely
        distance = speed_ms * dt
        bus.distance_travelled_m += distance
        length = self._route_length(bus.line)
        new_pos = bus.position_m + distance
        while new_pos >= length:  # reached a terminal: turn around
            new_pos -= length
            bus.direction = 1 - bus.direction
        bus.position_m = new_pos

    def _congestion_bit(self, bus: _BusState, node, t: int) -> int:
        truth = 1 if self.ground_truth.is_congested(node, t) else 0
        if bus.unreliable_mode == "stuck_congested":
            return 1
        if bus.unreliable_mode == "inverted":
            return 1 - truth
        return truth

    def columns(
        self, start: int, end: int, *, rng: Optional[random.Random] = None
    ) -> tuple[EventColumns, FactColumns]:
        """The ``move`` SDEs and paired ``gps`` facts of ``[start, end)``
        as two column blocks, row ``i`` of one paired with row ``i`` of
        the other.

        The stream is generated chronologically with a per-bus
        emission clock; the ``Delay`` attribute compares the bus's
        actual progress against the scheduled speed.  Every emission
        appends primitives to per-field columns — no record object is
        built here.

        ``rng`` is the explicit randomness source for emission jitter
        and arrival delays; when omitted a fresh seeded stream derived
        from the fleet seed is used, so every call with the same span
        yields the identical stream.  Global ``random`` state is never
        read.
        """
        times: list[int] = []
        arrivals: list[int] = []
        bus_ids: list[str] = []
        line_ids: list[str] = []
        operators: list[str] = []
        delays: list[float] = []
        lons: list[float] = []
        lats: list[float] = []
        directions: list[int] = []
        congestion: list[int] = []
        lo, hi = self.emission_period
        if rng is None:
            rng = random.Random(self.seed + 1)
        # Per-bus local clocks, advanced in global time order.  Bus
        # kinematics restart from the frozen initial states: a second
        # generation pass must not continue where the first left off.
        clock: dict[str, int] = {}
        for bus, initial in zip(self._buses, self._initial_states):
            bus.direction, bus.position_m, bus.next_emission = initial
            clock[bus.bus_id] = start + bus.next_emission % hi
            bus.started_at = start
            bus.distance_travelled_m = 0.0

        # Round-based generation: at every step pick the earliest bus.
        heap = [(clock[b.bus_id], b.bus_id, b) for b in self._buses]
        heapq.heapify(heap)
        while heap:
            t, bus_id, bus = heapq.heappop(heap)
            if t >= end:
                continue
            # Advance the bus from its last emission to t.
            dt = rng.randint(lo, hi)
            self._advance(bus, dt, t)
            lon, lat, node = self._locate(bus)
            elapsed = max(t - bus.started_at, 1)
            scheduled_m = SCHEDULED_SPEED_KMH / 3.6 * elapsed
            delay_s = max(
                0.0,
                (scheduled_m - bus.distance_travelled_m)
                / (SCHEDULED_SPEED_KMH / 3.6),
            )
            if rng.random() < self.late_fraction:
                arrival = t + rng.randint(5, self.max_arrival_delay)
            else:
                arrival = t + rng.randint(0, 5)
            times.append(t)
            arrivals.append(arrival)
            bus_ids.append(bus.bus_id)
            line_ids.append(bus.line.line_id)
            operators.append(bus.line.operator)
            delays.append(round(delay_s, 1))
            lons.append(lon)
            lats.append(lat)
            directions.append(bus.direction)
            congestion.append(self._congestion_bit(bus, node, t))
            heapq.heappush(heap, (t + dt, bus_id, bus))

        time_col = np.array(times, dtype=np.int64)
        arrival_col = np.array(arrivals, dtype=np.int64)
        bus_col = np.fromiter(bus_ids, dtype=object, count=len(bus_ids))
        move = EventColumns(
            "move",
            time_col,
            arrival_col,
            fields={
                "bus": bus_col,
                "line": line_ids,
                "operator": operators,
                "delay": np.array(delays, dtype=np.float64),
            },
        )
        gps = FactColumns(
            "gps",
            time_col,
            arrival_col,
            key_columns=(bus_col,),
            value_fields={
                "lon": np.array(lons, dtype=np.float64),
                "lat": np.array(lats, dtype=np.float64),
                "direction": np.array(directions, dtype=np.int64),
                "congestion": np.array(congestion, dtype=np.int64),
            },
        )
        return move, gps

    def events(
        self, start: int, end: int, *, rng: Optional[random.Random] = None
    ) -> Iterator[tuple[Event, FluentFact]]:
        """Yield ``(move SDE, gps fact)`` pairs in ``[start, end)`` —
        the rows of :meth:`columns`, materialised."""
        move, gps = self.columns(start, end, rng=rng)
        rows = np.arange(len(move))
        yield from zip(move.records(rows), gps.records(rows))
