"""CE definitions over the mobile (bus) stream.

The bus dataset provides, per formalisation (1) of the paper::

    happensAt(move(Bus, Line, Operator, Delay), T)
    holdsAt(gps(Bus, Lon, Lat, Direction, Congestion) = true, T)

In this reproduction a ``move`` :class:`~repro.core.events.Event`
carries the payload keys ``bus``, ``line``, ``operator`` and ``delay``,
and the paired ``gps`` input-fluent fact (same ``Bus`` key, same
time-point) carries ``lon``, ``lat``, ``direction`` and ``congestion``
(0 or 1).

Definitions implemented here:

* :class:`DelayIncrease` — the instantaneous CE of Section 4.1: a sharp
  increase in the delay of a bus between two SDEs emitted close in
  time, indicating a congestion in-the-make.
* :class:`BusCongestion` — rule-set (3): bus-reported congestion near
  locations of interest; and its self-adaptive variant rule-set (3′)
  that discards reports from buses currently considered ``noisy``.
* :class:`CongestionInTheMake` — the reinforcement hinted at in
  Section 4.1: ``delayIncrease`` CEs from several distinct buses in the
  same area within a short span.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable

from ..compiled import CompiledBusCongestion, CompiledDelayIncrease
from ..events import Event, FluentKey, Occurrence
from ..geo import distance_m
from ..rules import DerivedEvent, RuleContext, SimpleFluent
from .topology import ScatsTopology

#: Default thresholds for the bus-side CE definitions.
DEFAULT_BUS_PARAMS: dict[str, float | int] = {
    # delayIncrease: Delay - Delay' > d within 0 < T - T' < t.
    "bus.delay_delta": 60.0,
    "bus.delay_window": 120,
    # congestion-in-the-make: m distinct buses within w seconds and
    # r metres of each other.
    "citm.min_buses": 2,
    "citm.window": 300,
    "citm.radius_m": 300.0,
}


def _moves_by_bus(ctx: RuleContext) -> dict[object, list[Event]]:
    by_bus: dict[object, list[Event]] = defaultdict(list)
    for ev in ctx.events("move"):
        by_bus[ev["bus"]].append(ev)
    return by_bus


def _gps_at(ctx: RuleContext, bus: object, t: int):
    """The ``gps`` fluent value paired with a ``move`` SDE at ``t``."""
    return ctx.fact_at("gps", (bus,), t)


def close_intersections(
    ctx: RuleContext, topology: ScatsTopology, lon: float, lat: float
) -> list[str]:
    """Memoised ``close`` join between a position and the topology.

    Several definitions (rule-sets (3)/(3′) and the ``disagree`` /
    ``agree`` comparisons) evaluate the same ``close`` predicate for the
    same gps positions within one window; sharing the lookup keeps the
    self-adaptive overhead minimal (the property Figure 4 reports).
    """
    cache = ctx.memo.setdefault(("close", id(topology)), {})
    key = (lon, lat)
    if key not in cache:
        cache[key] = topology.intersections_close_to(lon, lat)
    return cache[key]


class DelayIncrease(DerivedEvent):
    """``delayIncrease(Bus, Lon', Lat', Lon, Lat)`` (Section 4.1).

    Recognised when the delay value of a bus increases by more than
    ``bus.delay_delta`` seconds across two SDEs emitted less than
    ``bus.delay_window`` seconds apart.
    """

    def __init__(self, name: str = "delayIncrease"):
        super().__init__(name, depends_on=())

    def occurrences(self, ctx: RuleContext) -> Iterable[Occurrence]:
        d = ctx.param("bus.delay_delta")
        t_max = ctx.param("bus.delay_window")
        for bus, moves in _moves_by_bus(ctx).items():
            for prev, cur in zip(moves, moves[1:]):
                if not 0 < cur.time - prev.time < t_max:
                    continue
                if cur["delay"] - prev["delay"] <= d:
                    continue
                gps_prev = _gps_at(ctx, bus, prev.time)
                gps_cur = _gps_at(ctx, bus, cur.time)
                if gps_prev is None or gps_cur is None:
                    continue
                yield Occurrence(
                    self.name,
                    (bus,),
                    cur.time,
                    {
                        "bus": bus,
                        "from_lon": gps_prev["lon"],
                        "from_lat": gps_prev["lat"],
                        "lon": gps_cur["lon"],
                        "lat": gps_cur["lat"],
                        "delay_increase": cur["delay"] - prev["delay"],
                    },
                )

    def compiled(self, params) -> CompiledDelayIncrease:
        """Consecutive-pair deltas of every bus in one pass over the
        delay column; only the hits build a payload."""
        return CompiledDelayIncrease(
            self.name,
            params.get(
                "bus.delay_delta", DEFAULT_BUS_PARAMS["bus.delay_delta"]
            ),
            params.get(
                "bus.delay_window", DEFAULT_BUS_PARAMS["bus.delay_window"]
            ),
        )


class BusCongestion(SimpleFluent):
    """Bus-reported congestion near locations of interest.

    Rule-set (3): ``busCongestion(Lon, Lat) = true`` is initiated when a
    bus moves close to the location and reports congestion (the ``gps``
    fluent's congestion bit is 1), and terminated when a (possibly
    different) bus moves close and reports no congestion.

    With ``adaptive=True`` this becomes rule-set (3′): reports from a
    bus for which ``noisy(Bus) = true`` currently holds are discarded —
    whether close to a SCATS intersection or not — which is how the
    self-adaptive recognition minimises the use of unreliable sources.

    The locations of interest are the SCATS intersections of the
    topology; groundings are keyed ``(intersection_id,)`` and the
    topology maps ids back to ``(Lon, Lat)``.
    """

    def __init__(
        self,
        topology: ScatsTopology,
        *,
        adaptive: bool = False,
        name: str = "busCongestion",
        noisy_fluent: str = "noisy",
    ):
        deps = (noisy_fluent,) if adaptive else ()
        super().__init__(name, depends_on=deps)
        self._topology = topology
        self.adaptive = adaptive
        self._noisy_fluent = noisy_fluent

    def _reports(
        self, ctx: RuleContext, congestion: int
    ) -> Iterable[tuple[FluentKey, int]]:
        for ev in ctx.events("move"):
            bus = ev["bus"]
            gps = _gps_at(ctx, bus, ev.time)
            if gps is None or gps["congestion"] != congestion:
                continue
            if self.adaptive and ctx.holds_at(
                self._noisy_fluent, (bus,), ev.time
            ):
                continue
            for int_id in close_intersections(
                ctx, self._topology, gps["lon"], gps["lat"]
            ):
                yield (int_id,), ev.time

    def initiations(self, ctx: RuleContext) -> Iterable[tuple[FluentKey, int]]:
        return self._reports(ctx, congestion=1)

    def terminations(self, ctx: RuleContext) -> Iterable[tuple[FluentKey, int]]:
        return self._reports(ctx, congestion=0)

    def compiled(self, params) -> CompiledBusCongestion:
        """Initiations and terminations over the shared bus-report
        relation, the ``noisy`` filter of rule-set (3′) as one
        vectorised ``holdsAt`` probe."""
        return CompiledBusCongestion(
            self._topology, self._noisy_fluent if self.adaptive else None
        )


class CongestionInTheMake(DerivedEvent):
    """Reinforced congestion-in-the-make indication (Section 4.1).

    The paper notes that a ``delayIncrease`` CE "may indicate a
    congestion in-the-make ... reinforced by instances of this CE type
    concerning other buses operating in the same area".  We formalise
    the reinforcement: an occurrence is emitted at time ``T`` when
    ``delayIncrease`` CEs from at least ``citm.min_buses`` distinct
    buses fall within ``citm.radius_m`` metres and ``citm.window``
    seconds of one another; the occurrence is anchored at the newest
    contributing CE.
    """

    def __init__(
        self,
        name: str = "congestionInTheMake",
        *,
        delay_event: str = "delayIncrease",
    ):
        super().__init__(name, depends_on=(delay_event,))
        self._delay_event = delay_event

    def occurrences(self, ctx: RuleContext) -> Iterable[Occurrence]:
        min_buses = int(ctx.param("citm.min_buses"))
        window = ctx.param("citm.window")
        radius = ctx.param("citm.radius_m")
        increases = list(ctx.derived(self._delay_event))
        emitted: set[tuple[int, object]] = set()
        for anchor in increases:
            nearby_buses = set()
            for other in increases:
                if not 0 <= anchor.time - other.time <= window:
                    continue
                if (
                    distance_m(
                        anchor["lon"], anchor["lat"], other["lon"], other["lat"]
                    )
                    <= radius
                ):
                    nearby_buses.add(other["bus"])
            if len(nearby_buses) >= min_buses:
                token = (anchor.time, anchor["bus"])
                if token not in emitted:
                    emitted.add(token)
                    yield Occurrence(
                        self.name,
                        (anchor["bus"],),
                        anchor.time,
                        {
                            "lon": anchor["lon"],
                            "lat": anchor["lat"],
                            "buses": tuple(sorted(map(str, nearby_buses))),
                            "support": len(nearby_buses),
                        },
                    )
