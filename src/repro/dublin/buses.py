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

A stream is generated in two passes.  **The schedule** — who emits
when, how long until its next emission and when the report arrives —
is drawn first, in global time order from one ``random.Random``: the
draws read the clocks and the RNG and nothing of the traffic, and they
are made for a slice of emissions at a time (:mod:`repro.draws`).
**The kinematics** — where each bus then is, how far it got and what
it saw — are computed afterwards as arrays: given the ground truth's
field the buses are independent, so the k-th emissions of all buses
are advanced together, a round at a time.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.columns import EventColumns, FactColumns
from ..draws import Draws
from .ground_truth import (
    FREE_FLOW_SPEED_KMH,
    DensityField,
    TrafficGroundTruth,
)
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


@dataclass(frozen=True)
class _BusState:
    """One simulated bus as every generation pass starts it."""

    bus_id: str
    line: BusLine
    direction: int  # 0 = forwards along the route, 1 = backwards
    offset_m: float  # distance along the (directed) route
    next_emission: int
    unreliable_mode: str  # "ok", "stuck_congested", "inverted"


@dataclass
class _RouteTables:
    """The fleet's routes as ``(line, position on route)`` tables,
    ragged rows padded: cumulative distance with ``inf`` (so no padded
    cell is ever "behind" a bus), the rest with zeros never read."""

    length: np.ndarray  # (line,) route length in metres
    cumulative: np.ndarray  # (line, stop) metres from the first stop
    lon: np.ndarray
    lat: np.ndarray
    node: np.ndarray  # (line, stop) junction number in the field

    def locate(
        self, line: np.ndarray, direction: np.ndarray, offset: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lon, lat, nearest route junction)`` of buses ``offset``
        metres along their directed routes."""
        length = self.length[line]
        pos = np.where(direction == 1, length - offset, offset)
        pos = np.minimum(np.maximum(pos, 0.0), length)
        # The segment containing `pos`: the first whose end reaches it.
        i = (self.cumulative[line, 1:] < pos[:, None]).sum(axis=1)
        seg_start = self.cumulative[line, i]
        seg_len = self.cumulative[line, i + 1] - seg_start
        frac = np.divide(
            pos - seg_start,
            seg_len,
            out=np.zeros(len(pos)),
            where=seg_len != 0,
        )
        lon_a, lat_a = self.lon[line, i], self.lat[line, i]
        lon = lon_a + frac * (self.lon[line, i + 1] - lon_a)
        lat = lat_a + frac * (self.lat[line, i + 1] - lat_a)
        nearest = np.where(
            frac < 0.5, self.node[line, i], self.node[line, i + 1]
        )
        return lon, lat, nearest


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
        if max_arrival_delay < 5:
            raise ValueError(
                "max_arrival_delay must be at least 5 (a late report "
                "arrives 5 to max_arrival_delay seconds after it is made)"
            )
        if not 0.0 <= late_fraction <= 1.0:
            raise ValueError("late fraction must be within [0, 1]")
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
                    offset_m=rng.uniform(
                        0.0, self._route_length(line)
                    ),
                    next_emission=rng.randint(0, hi),
                    unreliable_mode=(
                        unreliable_mode if i in unreliable_ids else "ok"
                    ),
                )
            )

    # ------------------------------------------------------------------
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

    def _route_tables(self, field: DensityField) -> _RouteTables:
        """The padded route tables of this fleet's lines, junctions
        numbered as ``field`` numbers them."""
        geometry = [self._route_geometry(line) for line in self.lines]
        width = max(len(nodes) for nodes, __ in geometry)
        shape = (len(geometry), width)
        tables = _RouteTables(
            length=np.array([cum[-1] for __, cum in geometry]),
            cumulative=np.full(shape, np.inf),
            lon=np.zeros(shape),
            lat=np.zeros(shape),
            node=np.zeros(shape, dtype=np.int64),
        )
        for row, (nodes, cumulative) in enumerate(geometry):
            n = len(nodes)
            tables.cumulative[row, :n] = cumulative
            tables.lon[row, :n], tables.lat[row, :n] = zip(
                *map(self.network.position, nodes)
            )
            tables.node[row, :n] = [field.index[v] for v in nodes]
        return tables

    def _schedule(
        self, start: int, end: int, rng: random.Random
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Pass 1: ``(time, bus number, seconds to the bus's next
        emission, arrival)`` of every emission in ``[start, end)``, in
        global time order.

        Three draws per emission, from the one shared stream, earliest
        bus first (ties: the smaller id *string*): ``randint(lo, hi)``
        for the gap, ``random() < late_fraction``, then the arrival
        ``randint(5, max_arrival_delay)`` or ``randint(0, 5)``.  The
        draws must never read the ground truth or where a bus is: that
        they do not is what lets :meth:`columns` compute the kinematics
        afterwards, for all buses at once.

        The emissions are taken a slice at a time.  With ``T`` the
        earliest clock, every bus whose clock is below
        ``min(T + lo, end)`` emits exactly once in the slice: once it
        has emitted it is due again at ``t + gap >= T + lo``, after
        every emission of the slice.  So sorting the slice by (time, id
        string) gives the order an earliest-first heap would pop, and
        its draws are the next records of the stream (:class:`Draws`).
        """
        lo, hi = self.emission_period
        late_fraction = self.late_fraction
        max_delay = self.max_arrival_delay

        def emission(words, at):
            gap, at = words.randint(lo, hi, at)
            u, at = words.random(at)
            late = u < late_fraction
            slow, after_slow = words.randint(5, max_delay, at)
            quick, after_quick = words.randint(0, 5, at)
            return (
                np.where(late, after_slow, after_quick),
                (gap, np.where(late, slow, quick)),
            )

        ids = [bus.bus_id for bus in self._buses]
        rank = np.empty(len(ids), dtype=np.int64)
        rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(
            len(ids)
        )
        clock = np.array(
            [start + bus.next_emission % hi for bus in self._buses],
            dtype=np.int64,
        )
        # An empty first slice types the arrays of a span with no emission.
        slices = [(np.zeros(0, dtype=np.int64),) * 4]
        with Draws(rng, emission) as draws:
            while (first := int(clock.min())) < end:
                due = np.flatnonzero(clock < min(first + lo, end))
                due = due[np.lexsort((rank[due], clock[due]))]
                gap, delay = draws.take(len(due))
                times = clock[due]
                slices.append((times, due, gap, times + delay))
                clock[due] = times + gap
        return tuple(np.concatenate(column) for column in zip(*slices))

    def columns(
        self, start: int, end: int, *, rng: Optional[random.Random] = None
    ) -> tuple[EventColumns, FactColumns]:
        """The ``move`` SDEs and paired ``gps`` facts of ``[start, end)``
        as two column blocks, row ``i`` of one paired with row ``i`` of
        the other, in global time order.

        Every bus starts from its initial state, so the stream is a
        pure function of ``(start, end, seed)``; the ``Delay``
        attribute compares the bus's actual progress against the
        scheduled speed.  No record object is built here.

        ``rng`` is the explicit randomness source for emission jitter
        and arrival delays; when omitted a fresh seeded stream derived
        from the fleet seed is used, so every call with the same span
        yields the identical stream.  Global ``random`` state is never
        read.
        """
        if rng is None:
            rng = random.Random(self.seed + 1)
        times, bus, gaps, arrivals = self._schedule(start, end, rng)

        # Pass 2: every bus from its initial state, a round at a time.
        n_buses = len(self._buses)
        field = DensityField(self.ground_truth, start, end)
        routes = self._route_tables(field)
        row_of = {line.line_id: k for k, line in enumerate(self.lines)}
        line = np.array([row_of[b.line.line_id] for b in self._buses])
        route_length = routes.length[line]
        direction = np.array(
            [b.direction for b in self._buses], dtype=np.int64
        )
        offset = np.array([b.offset_m for b in self._buses])
        travelled = np.zeros(n_buses)
        __, __, node = routes.locate(line, direction, offset)
        lons = np.empty(len(bus))
        lats = np.empty(len(bus))
        progress = np.empty(len(bus))
        directions = np.empty(len(bus), dtype=np.int64)
        nodes = np.empty(len(bus), dtype=np.int64)
        for rows in _rounds(bus):
            b = bus[rows]
            # Move for `gaps` seconds at the local true speed (floor:
            # buses crawl, never stall completely).
            speed_ms = np.maximum(
                field.speed(node[b], times[rows]) / 3.6, 1.0
            )
            distance = speed_ms * gaps[rows]
            travelled[b] = travelled[b] + distance
            length = route_length[b]
            moved = offset[b] + distance
            heading = direction[b]
            over = moved >= length
            while over.any():  # reached a terminal: turn around
                moved = np.where(over, moved - length, moved)
                heading = np.where(over, 1 - heading, heading)
                over = moved >= length
            offset[b] = moved
            direction[b] = heading
            lons[rows], lats[rows], node[b] = routes.locate(
                line[b], heading, moved
            )
            progress[rows] = travelled[b]
            directions[rows] = heading
            nodes[rows] = node[b]

        scheduled_mps = SCHEDULED_SPEED_KMH / 3.6
        scheduled_m = scheduled_mps * np.maximum(times - start, 1)
        delay_s = np.maximum(0.0, (scheduled_m - progress) / scheduled_mps)
        truth = field.is_congested(nodes, times).astype(np.int64)
        stuck, inverted = (
            np.array([b.unreliable_mode == mode for b in self._buses])[bus]
            for mode in ("stuck_congested", "inverted")
        )
        congestion = np.where(
            stuck, 1, np.where(inverted, 1 - truth, truth)
        )

        bus_col = _object_column(b.bus_id for b in self._buses)[bus]
        move = EventColumns(
            "move",
            times,
            arrivals,
            fields={
                "bus": bus_col,
                "line": _object_column(
                    b.line.line_id for b in self._buses
                )[bus],
                "operator": _object_column(
                    b.line.operator for b in self._buses
                )[bus],
                "delay": np.array(
                    [round(d, 1) for d in delay_s.tolist()],
                    dtype=np.float64,
                ),
            },
        )
        gps = FactColumns(
            "gps",
            times,
            arrivals,
            key_columns=(bus_col,),
            value_fields={
                "lon": lons,
                "lat": lats,
                "direction": directions,
                "congestion": congestion,
            },
        )
        return move, gps

def _rounds(bus: np.ndarray) -> list[np.ndarray]:
    """The rows of a schedule grouped into rounds: round ``k`` holds
    the row of the k-th emission of every bus that has one, so no bus
    appears twice in a round.  ``bus`` is the emitting bus of each row,
    a bus's rows in time order."""
    per_bus = np.bincount(bus)
    rank = np.empty(len(bus), dtype=np.int64)
    rank[np.argsort(bus, kind="stable")] = np.arange(len(bus)) - np.repeat(
        np.cumsum(per_bus) - per_bus, per_bus
    )
    by_round = np.argsort(rank, kind="stable")
    return np.split(by_round, np.cumsum(np.bincount(rank))[:-1])


def _object_column(values) -> np.ndarray:
    """``values`` as a 1-D object array holding the very references."""
    values = list(values)
    return np.fromiter(values, dtype=object, count=len(values))
