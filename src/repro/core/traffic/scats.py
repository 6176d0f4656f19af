"""CE definitions over the SCATS fixed-sensor stream.

The SCATS SDE is the instantaneous event (paper, Section 4.3)::

    happensAt(traffic(Int, A, S, D, F), T)

expressing density ``D`` and traffic flow ``F`` measured by sensor ``S``
mounted on a lane with approach ``A`` into intersection ``Int``.  In
this reproduction the ``traffic`` :class:`~repro.core.events.Event`
carries the payload keys ``intersection``, ``approach``, ``sensor``,
``density`` and ``flow``.

Definitions implemented here:

* :class:`ScatsCongestion` — rule-set (2): sensor-level congestion from
  the fundamental diagram of traffic flow (density above a threshold
  while flow is below another).
* :class:`ScatsIntersectionCongestion` — intersection-level congestion:
  "a SCATS intersection is congested if at least n (n > 1) of its
  sensors are congested" (Section 4.3).
* :class:`TrafficTrend` — the flow/density *trend* CEs mentioned in
  Section 4.3 for proactive decision-making; the paper does not
  formalise them, so we define: a trend fluent holds while ``k``
  consecutive readings of a sensor change monotonically by at least
  ``δ`` per reading (our formalisation, recorded in DESIGN.md).
* :class:`ApproachCongestion` / :class:`StructuredIntersectionCongestion`
  — the "more structured intersection congestion definition that
  depends on approach congestion which in turn would depend on sensor
  congestion" the paper sketches in Section 4.3: an approach is
  congested while at least ``m`` of its sensors are, and the
  intersection while at least ``k`` of its approaches are.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Mapping

from ..compiled import (
    CompiledScatsCongestion,
    CompiledTrafficRegime,
    CompiledTrafficTrend,
)
from ..events import Event, FluentKey
from ..intervals import IntervalList, count_threshold
from ..rules import RuleContext, SimpleFluent, StaticFluent, ValuedFluent
from .topology import ScatsTopology

#: Default thresholds; densities in vehicles/km, flows in vehicles/hour.
DEFAULT_SCATS_PARAMS: dict[str, float | int] = {
    # Rule-set (2): upper density / lower flow thresholds.
    "scats.density_hi": 60.0,
    "scats.flow_lo": 600.0,
    # Intersection congestion: minimum number of congested sensors.
    "scats.intersection_sensor_count": 2,
    # Structured variant: congested sensors per approach and congested
    # approaches per intersection.
    "scats.approach_sensor_count": 1,
    "scats.intersection_approach_count": 2,
    # Trend CEs: number of consecutive readings and minimum step.
    "trend.readings": 3,
    "trend.flow_delta": 120.0,
    "trend.density_delta": 8.0,
    # Traffic-regime bands (veh/km): free < synchronized < congested,
    # with the congested bound shared with rule-set (2).
    "regime.synchronized_density": 35.0,
}


def _sensor_key(ev: Event) -> FluentKey:
    return (ev["intersection"], ev["approach"], ev["sensor"])


class ScatsCongestion(SimpleFluent):
    """Sensor-level congestion — the paper's rule-set (2).

    ``scatsCongestion(Int, A, S) = true`` is initiated when the density
    reported by the sensor is at or above ``scats.density_hi`` while the
    flow is at or below ``scats.flow_lo`` (the congested branch of the
    fundamental diagram), and terminated when either condition fails.
    """

    def __init__(self, name: str = "scatsCongestion"):
        super().__init__(name, depends_on=())

    def initiations(self, ctx: RuleContext) -> Iterable[tuple[FluentKey, int]]:
        density_hi = ctx.param("scats.density_hi")
        flow_lo = ctx.param("scats.flow_lo")
        for ev in ctx.events("traffic"):
            if ev["density"] >= density_hi and ev["flow"] <= flow_lo:
                yield _sensor_key(ev), ev.time

    def terminations(self, ctx: RuleContext) -> Iterable[tuple[FluentKey, int]]:
        density_hi = ctx.param("scats.density_hi")
        flow_lo = ctx.param("scats.flow_lo")
        for ev in ctx.events("traffic"):
            # Two termination rules in rule-set (2): density back under
            # the threshold, or flow back above its threshold.
            if ev["density"] < density_hi or ev["flow"] > flow_lo:
                yield _sensor_key(ev), ev.time

    def compiled(self, params) -> CompiledScatsCongestion:
        """One boolean mask over the density/flow columns."""
        return CompiledScatsCongestion(
            params["scats.density_hi"], params["scats.flow_lo"]
        )


class ScatsIntersectionCongestion(StaticFluent):
    """Intersection-level congestion (``scatsIntCongestion``).

    A statically-determined fluent: the intersection is congested while
    at least ``scats.intersection_sensor_count`` of its sensors'
    ``scatsCongestion`` fluents hold simultaneously.  Grounding key:
    ``(intersection_id,)``; the topology maps ids to ``(Lon, Lat)``.
    """

    def __init__(
        self,
        topology: ScatsTopology,
        *,
        name: str = "scatsIntCongestion",
        congestion_fluent: str = "scatsCongestion",
    ):
        super().__init__(name, depends_on=(congestion_fluent,))
        self._topology = topology
        self._congestion_fluent = congestion_fluent

    def derive(self, ctx: RuleContext) -> Mapping[FluentKey, IntervalList]:
        n = int(ctx.param("scats.intersection_sensor_count"))
        by_intersection: dict[str, list[IntervalList]] = defaultdict(list)
        for key, intervals in ctx.fluent(self._congestion_fluent).items():
            int_id = key[0]
            if int_id in self._topology:
                by_intersection[int_id].append(intervals)
        out: dict[FluentKey, IntervalList] = {}
        for int_id, lists in by_intersection.items():
            # An intersection with fewer sensors than the threshold is
            # congested when all of its sensors are.
            required = min(n, len(self._topology.sensors_of(int_id))) or n
            intervals = count_threshold(lists, required)
            if intervals:
                out[(int_id,)] = intervals
        return out


class TrafficTrend(SimpleFluent):
    """Flow or density trend fluent (``flowTrend`` / ``densityTrend``).

    Grounding key: ``(Int, A, S, direction)`` with direction
    ``"rising"`` or ``"falling"``.  The fluent is initiated at the
    reading that completes ``k`` consecutive monotone steps of at least
    ``δ`` each, and terminated at any reading that breaks the pattern.
    """

    def __init__(self, quantity: str, *, name: str | None = None):
        if quantity not in ("flow", "density"):
            raise ValueError("quantity must be 'flow' or 'density'")
        super().__init__(name or f"{quantity}Trend", depends_on=())
        self.quantity = quantity

    def _readings(
        self, ctx: RuleContext
    ) -> dict[FluentKey, list[tuple[int, float]]]:
        by_sensor: dict[FluentKey, list[tuple[int, float]]] = defaultdict(list)
        for ev in ctx.events("traffic"):
            by_sensor[_sensor_key(ev)].append((ev.time, ev[self.quantity]))
        return by_sensor

    def _delta(self, ctx: RuleContext) -> float:
        return ctx.param(f"trend.{self.quantity}_delta")

    def initiations(self, ctx: RuleContext) -> Iterable[tuple[FluentKey, int]]:
        k = int(ctx.param("trend.readings"))
        delta = self._delta(ctx)
        for key, readings in self._readings(ctx).items():
            for i in range(k, len(readings)):
                window = readings[i - k : i + 1]
                steps = [
                    b[1] - a[1] for a, b in zip(window, window[1:])
                ]
                if all(s >= delta for s in steps):
                    yield key + ("rising",), readings[i][0]
                elif all(s <= -delta for s in steps):
                    yield key + ("falling",), readings[i][0]

    def terminations(self, ctx: RuleContext) -> Iterable[tuple[FluentKey, int]]:
        delta = self._delta(ctx)
        for key, readings in self._readings(ctx).items():
            for (t0, v0), (t1, v1) in zip(readings, readings[1:]):
                step = v1 - v0
                if step < delta:
                    yield key + ("rising",), t1
                if step > -delta:
                    yield key + ("falling",), t1

    def compiled(self, params) -> CompiledTrafficTrend:
        """Per-sensor monotone-run scan over one measurement column."""
        return CompiledTrafficTrend(
            self.quantity,
            int(
                params.get(
                    "trend.readings", DEFAULT_SCATS_PARAMS["trend.readings"]
                )
            ),
            params[f"trend.{self.quantity}_delta"],
        )


class ApproachCongestion(StaticFluent):
    """Approach-level congestion (``approachCongestion``).

    The middle layer of the structured intersection definition of
    Section 4.3: an approach into an intersection is congested while at
    least ``scats.approach_sensor_count`` of the sensors mounted on it
    are congested.  Grounding key: ``(intersection_id, approach)``.
    """

    def __init__(
        self,
        topology: ScatsTopology,
        *,
        name: str = "approachCongestion",
        congestion_fluent: str = "scatsCongestion",
    ):
        super().__init__(name, depends_on=(congestion_fluent,))
        self._topology = topology
        self._congestion_fluent = congestion_fluent

    def derive(self, ctx: RuleContext) -> Mapping[FluentKey, IntervalList]:
        m = int(ctx.param("scats.approach_sensor_count"))
        by_approach: dict[tuple, list[IntervalList]] = defaultdict(list)
        sensors_per_approach: dict[tuple, int] = defaultdict(int)
        for int_id in self._topology.ids():
            for sensor_key in self._topology.sensors_of(int_id):
                sensors_per_approach[(sensor_key[0], sensor_key[1])] += 1
        for key, intervals in ctx.fluent(self._congestion_fluent).items():
            int_id, approach = key[0], key[1]
            if int_id in self._topology:
                by_approach[(int_id, approach)].append(intervals)
        out: dict[FluentKey, IntervalList] = {}
        for approach_key, lists in by_approach.items():
            required = min(m, sensors_per_approach[approach_key]) or m
            intervals = count_threshold(lists, required)
            if intervals:
                out[approach_key] = intervals
        return out


class StructuredIntersectionCongestion(StaticFluent):
    """Intersection congestion from congested approaches.

    The top layer of the structured definition: the intersection is
    congested while at least ``scats.intersection_approach_count`` of
    its approaches are congested.  Grounding key: ``(intersection_id,)``
    — interchangeable with :class:`ScatsIntersectionCongestion`, so the
    veracity rules can be built on either definition.
    """

    def __init__(
        self,
        topology: ScatsTopology,
        *,
        name: str = "scatsIntCongestion",
        approach_fluent: str = "approachCongestion",
    ):
        super().__init__(name, depends_on=(approach_fluent,))
        self._topology = topology
        self._approach_fluent = approach_fluent

    def derive(self, ctx: RuleContext) -> Mapping[FluentKey, IntervalList]:
        k = int(ctx.param("scats.intersection_approach_count"))
        by_intersection: dict[str, list[IntervalList]] = defaultdict(list)
        for key, intervals in ctx.fluent(self._approach_fluent).items():
            by_intersection[key[0]].append(intervals)
        out: dict[FluentKey, IntervalList] = {}
        for int_id, lists in by_intersection.items():
            approaches = {
                sensor_key[1]
                for sensor_key in self._topology.sensors_of(int_id)
            }
            required = min(k, len(approaches)) or k
            intervals = count_threshold(lists, required)
            if intervals:
                out[(int_id,)] = intervals
        return out


class TrafficRegime(ValuedFluent):
    """Per-sensor traffic regime — a multi-valued fluent.

    Classifies each detector's state into the three phases of
    traffic-flow theory by density band: ``free`` (below
    ``regime.synchronized_density``), ``synchronized`` (between the
    bands) and ``congested`` (at or above ``scats.density_hi``, the
    same threshold rule-set (2) uses).  Being a single fluent over
    three values (rather than three booleans) guarantees exactly one
    regime holds per sensor at any time — the ``F = V`` semantics of
    RTEC.  Grounding key: ``(Int, A, S)``, stored under
    ``(Int, A, S, regime)``.
    """

    #: The regime labels, ordered free-flowing to congested.
    REGIMES = ("free", "synchronized", "congested")

    def __init__(self, name: str = "trafficRegime"):
        super().__init__(name, depends_on=())

    def _classify(self, ctx: RuleContext, density: float) -> str:
        if density >= ctx.param("scats.density_hi"):
            return "congested"
        if density >= ctx.param("regime.synchronized_density"):
            return "synchronized"
        return "free"

    def initiations(self, ctx: RuleContext):
        """Each reading initiates the regime its density falls in."""
        for ev in ctx.events("traffic"):
            yield _sensor_key(ev), self._classify(ctx, ev["density"]), ev.time

    def terminations(self, ctx: RuleContext):
        """No explicit terminations: regimes displace one another."""
        return ()

    def compiled(self, params) -> CompiledTrafficRegime:
        """Banded classification of the density column."""
        return CompiledTrafficRegime(
            params["scats.density_hi"],
            params["regime.synchronized_density"],
        )
