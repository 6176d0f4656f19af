"""Ground-truth city traffic dynamics (the data the sensors observe).

The real deployment observes an unknowable true traffic state; the
reproduction needs a *known* one so that CE recognition, crowdsourcing
and GP estimation can be validated.  The model follows the fundamental
diagram of traffic flow (which the paper's rule-set (2) thresholds are
based on) in its Greenshields form::

    v(k) = v_free · (1 − k / k_jam)         (speed-density relation)
    q(k) = k · v(k)                          (flow-density relation)

Per-junction density is composed of:

* a base level increasing towards the city centre;
* a daily profile with morning and evening rush-hour peaks;
* smooth per-junction pseudo-random variation (seeded sinusoids); and
* localised *incidents* that push density towards jam level around a
  junction for a bounded period — these create the congestions the CEP
  component must detect.

Everything is deterministic given the seed; no wall-clock randomness.

The model is stated once, as the scalar :meth:`TrafficGroundTruth.density`
of one junction at one time.  The simulators, which ask for it a few
hundred thousand times a run, read it through :class:`DensityField` —
the same expression over arrays of ``(junction index, t)``, cell for
cell the float the scalar gives.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .network import StreetNetwork

#: Greenshields parameters: free-flow speed and jam density.
FREE_FLOW_SPEED_KMH = 50.0
JAM_DENSITY_VEH_KM = 120.0

#: A junction counts as congested above this density (veh/km).  Chosen
#: on the congested branch of the fundamental diagram and consistent
#: with the default rule-set (2) thresholds.
CONGESTION_DENSITY = 60.0

SECONDS_PER_HOUR = 3600


def greenshields_speed(density: float) -> float:
    """Speed (km/h) at ``density`` (veh/km) under Greenshields."""
    density = min(max(density, 0.0), JAM_DENSITY_VEH_KM)
    return FREE_FLOW_SPEED_KMH * (1.0 - density / JAM_DENSITY_VEH_KM)


def greenshields_flow(density: float) -> float:
    """Flow (veh/h) at ``density`` (veh/km) under Greenshields."""
    return min(max(density, 0.0), JAM_DENSITY_VEH_KM) * greenshields_speed(
        density
    )


def greenshields_speeds(density: np.ndarray) -> np.ndarray:
    """:func:`greenshields_speed` over an array, cell for cell."""
    density = np.minimum(np.maximum(density, 0.0), JAM_DENSITY_VEH_KM)
    return FREE_FLOW_SPEED_KMH * (1.0 - density / JAM_DENSITY_VEH_KM)


def greenshields_flows(density: np.ndarray) -> np.ndarray:
    """:func:`greenshields_flow` over an array, cell for cell."""
    return np.minimum(
        np.maximum(density, 0.0), JAM_DENSITY_VEH_KM
    ) * greenshields_speeds(density)


def daily_profile(t: int) -> float:
    """Demand multiplier over the day: rush peaks at ~08:30 and ~17:30.

    ``t`` is in seconds from midnight; the profile is 1.0 off-peak and
    rises towards ~2.2 at the peaks, with a night-time dip.
    """
    hours = (t / SECONDS_PER_HOUR) % 24.0
    morning = 1.2 * math.exp(-(((hours - 8.5) / 1.3) ** 2))
    evening = 1.1 * math.exp(-(((hours - 17.5) / 1.5) ** 2))
    night_dip = -0.55 * math.exp(-(((hours - 3.5) / 2.5) ** 2))
    return 1.0 + morning + evening + night_dip


@dataclass(frozen=True)
class Incident:
    """A localised disruption raising density around a junction."""

    node: object
    start: int
    duration: int
    #: Added density at the epicentre (veh/km); halved at neighbours.
    severity: float = 70.0

    def active(self, t: int) -> bool:
        """Whether the incident is in progress at ``t``."""
        return self.start <= t < self.start + self.duration


@dataclass(frozen=True)
class Surge:
    """A crowd-event demand surge (stadium, concert, parade).

    Unlike an :class:`Incident` — a point disruption felt only at the
    epicentre and its direct neighbours — a surge floods a whole
    neighbourhood: added density decays linearly with graph-hop
    distance from the venue out to ``radius_hops``, and ramps up and
    down over the first/last quarter of the event window (crowds
    arrive and disperse, they do not teleport).
    """

    node: object
    start: int
    duration: int
    #: Added density at the venue itself (veh/km) at full ramp.
    magnitude: float = 60.0
    #: Graph-hop radius of the affected neighbourhood.
    radius_hops: int = 2

    def ramp(self, t: int) -> float:
        """Intensity in [0, 1] at ``t`` (trapezoidal ramp)."""
        if not self.start <= t < self.start + self.duration:
            return 0.0
        edge = max(self.duration // 4, 1)
        into = t - self.start
        left = self.start + self.duration - t
        return min(1.0, into / edge, left / edge)


@dataclass(frozen=True)
class WeatherSlowdown:
    """A city-wide weather window (rain, fog, ice) thickening traffic.

    Modelled as a multiplicative density factor: the same demand
    occupies the road for longer, so measured density rises everywhere
    and the Greenshields speed drops with it — buses slow down, delays
    grow, and marginal junctions tip over the congestion threshold.
    """

    start: int
    end: int
    #: Density multiplier while active (> 1 slows the city down).
    density_factor: float = 1.4

    def factor(self, t: int) -> float:
        """The density multiplier at ``t`` (1.0 outside the window)."""
        return self.density_factor if self.start <= t < self.end else 1.0


@dataclass
class TrafficGroundTruth:
    """Deterministic true traffic state over a street network.

    Parameters
    ----------
    network:
        The street graph.
    seed:
        Seed for the per-junction variation and incident placement.
    base_density:
        Off-peak density far from the centre (veh/km).
    centre_boost:
        Extra density at the exact centre, decaying outwards.
    incidents:
        Explicit incidents; when ``None``, ``n_random_incidents`` are
        placed pseudo-randomly inside ``incident_window``.
    surges:
        Crowd-event demand surges (:class:`Surge`); empty by default.
    weather:
        City-wide :class:`WeatherSlowdown` windows; empty by default.
    """

    network: StreetNetwork
    seed: int = 0
    base_density: float = 14.0
    centre_boost: float = 22.0
    incidents: Optional[list[Incident]] = None
    n_random_incidents: int = 6
    incident_window: tuple[int, int] = (0, 24 * SECONDS_PER_HOUR)
    surges: tuple[Surge, ...] = ()
    weather: tuple[WeatherSlowdown, ...] = ()
    _phase: dict = field(default_factory=dict, repr=False)
    _neighbour_cache: dict = field(default_factory=dict, repr=False)
    _hop_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        rng = random.Random(self.seed)
        # Spatially-smooth demand field: a few seeded plane waves over
        # lon/lat.  Traffic demand is spatially correlated (that is the
        # premise of the GP traffic model), so neighbouring junctions
        # get similar amplitudes, with only a small iid component.
        waves = [
            (
                rng.uniform(20.0, 60.0),  # spatial frequency (per degree)
                rng.uniform(0.0, 2.0 * math.pi),  # orientation
                rng.uniform(0.0, 2.0 * math.pi),  # phase
            )
            for _ in range(3)
        ]
        for node in self.network.graph.nodes:
            lon, lat = self.network.position(node)
            field = sum(
                math.sin(
                    freq * (lon * math.cos(theta) + lat * math.sin(theta))
                    + phase
                )
                for freq, theta, phase in waves
            ) / 3.0
            amplitude = 1.0 + 0.25 * field + rng.uniform(-0.05, 0.05)
            self._phase[node] = (rng.uniform(0.0, 2.0 * math.pi), amplitude)
        if self.incidents is None:
            self.incidents = self._random_incidents(rng)

    def _random_incidents(self, rng: random.Random) -> list[Incident]:
        nodes = list(self.network.graph.nodes)
        lo, hi = self.incident_window
        span = max(hi - lo, 1)
        out = []
        for _ in range(self.n_random_incidents):
            out.append(
                Incident(
                    node=rng.choice(nodes),
                    start=lo + rng.randrange(span),
                    duration=rng.randrange(20 * 60, 90 * 60),
                    severity=rng.uniform(55.0, 90.0),
                )
            )
        return out

    # ------------------------------------------------------------------
    def _centre_factor(self, node) -> float:
        lon, lat = self.network.position(node)
        c_lon, c_lat = self.network.centre
        lon_min, lat_min, lon_max, lat_max = self.network.bbox
        # Normalised distance from the centre in [0, ~1].
        d = math.hypot(
            (lon - c_lon) / (lon_max - lon_min),
            (lat - c_lat) / (lat_max - lat_min),
        ) * 2.0
        return math.exp(-2.5 * d * d)

    def _base_level(self, node) -> float:
        """Off-peak density of a junction: higher towards the centre."""
        return self.base_density + self.centre_boost * self._centre_factor(
            node
        )

    def _incident_density(self, node, t: int) -> float:
        extra = 0.0
        for incident in self.incidents:
            if not incident.active(t):
                continue
            if incident.node == node:
                extra += incident.severity
            else:
                if incident.node not in self._neighbour_cache:
                    self._neighbour_cache[incident.node] = set(
                        self.network.graph.neighbors(incident.node)
                    )
                if node in self._neighbour_cache[incident.node]:
                    extra += incident.severity / 2.0
        return extra

    def _hops_from(self, origin, radius: int) -> dict:
        """Graph-hop distances from ``origin`` out to ``radius``
        (BFS, cached per (origin, radius))."""
        key = (origin, radius)
        if key not in self._hop_cache:
            hops = {origin: 0}
            frontier = [origin]
            for depth in range(1, radius + 1):
                nxt = []
                for node in frontier:
                    for neighbour in self.network.graph.neighbors(node):
                        if neighbour not in hops:
                            hops[neighbour] = depth
                            nxt.append(neighbour)
                frontier = nxt
            self._hop_cache[key] = hops
        return self._hop_cache[key]

    def _surge_density(self, node, t: int) -> float:
        extra = 0.0
        for surge in self.surges:
            ramp = surge.ramp(t)
            if ramp <= 0.0:
                continue
            hops = self._hops_from(surge.node, surge.radius_hops)
            hop = hops.get(node)
            if hop is None:
                continue
            decay = 1.0 - hop / (surge.radius_hops + 1)
            extra += surge.magnitude * ramp * decay
        return extra

    def _weather_factor(self, t: int) -> float:
        factor = 1.0
        for window in self.weather:
            factor *= window.factor(t)
        return factor

    def density(self, node, t: int) -> float:
        """True density (veh/km) at a junction and time."""
        phase, amplitude = self._phase[node]
        demand = self._base_level(node) * daily_profile(t) * amplitude
        wiggle = 1.5 * math.sin(2.0 * math.pi * t / 1800.0 + phase)
        density = demand + wiggle + self._incident_density(node, t)
        density += self._surge_density(node, t)
        density *= self._weather_factor(t)
        return min(max(density, 0.0), JAM_DENSITY_VEH_KM)

    def speed(self, node, t: int) -> float:
        """True speed (km/h) at a junction and time."""
        return greenshields_speed(self.density(node, t))

    def is_congested(self, node, t: int) -> bool:
        """Whether a junction is truly congested at ``t``."""
        return self.density(node, t) >= CONGESTION_DENSITY

    def congestion_label(self, node, t: int) -> str:
        """Ground-truth crowd label at a junction (for simulated
        participants): ``congestion`` or ``free_flow``."""
        return "congestion" if self.is_congested(node, t) else "free_flow"

class DensityField:
    """:meth:`TrafficGroundTruth.density` over arrays of ``(junction
    index, t)``, equal to the scalar bit for bit.

    The scalar is the model; this is the same expression with NumPy
    doing the ``+ - * /``, the comparisons and the gathers in the
    scalar's operand order, and Python's own ``math.sin`` /
    ``math.exp`` doing the transcendentals (NumPy's SIMD loops may
    differ from them in the last place).  Incidents are summed in list
    order, surges after them, weather as a product, the clamp last —
    any change to :meth:`TrafficGroundTruth.density` is a change here,
    and ``tests/dublin/test_density_field.py`` compares the two with
    ``==``.

    A field covers the time span it was built for (its demand-profile
    table is over ``[t_lo, t_hi)``) and numbers the junctions in graph
    order: ``nodes[i]`` is junction ``i`` and ``index[node]`` its
    number.  It is built where a stream is generated and dropped with
    it; the ground truth keeps no reference to one.
    """

    def __init__(self, truth: TrafficGroundTruth, t_lo: int, t_hi: int):
        graph = truth.network.graph
        self.nodes: list = list(graph.nodes)
        self.index: dict = {node: i for i, node in enumerate(self.nodes)}
        self.t_lo = t_lo
        self.t_hi = t_hi
        n = len(self.nodes)
        self._phase = np.array([truth._phase[v][0] for v in self.nodes])
        self._amplitude = np.array([truth._phase[v][1] for v in self.nodes])
        self._base = np.array([truth._base_level(v) for v in self.nodes])
        self._profile = np.array(
            [daily_profile(t) for t in range(t_lo, t_hi)]
        )
        #: Per incident in progress at some time of the span: its
        #: window and what it adds at each junction (full severity at
        #: the epicentre, half at its neighbours, nothing elsewhere).
        #: The others add 0.0 to every cell and are left out.
        self._incidents: list[tuple[int, int, np.ndarray]] = []
        for incident in truth.incidents:
            stop = incident.start + incident.duration
            if stop <= t_lo or incident.start >= t_hi:
                continue
            added = np.zeros(n)
            for neighbour in graph.neighbors(incident.node):
                added[self.index[neighbour]] = incident.severity / 2.0
            added[self.index[incident.node]] = incident.severity
            self._incidents.append((incident.start, stop, added))
        #: Per surge: window, ramp edge, magnitude, and per junction
        #: the hop decay and whether the surge reaches it at all.
        self._surges: list[tuple] = []
        for surge in truth.surges:
            decay = np.zeros(n)
            reached = np.zeros(n, dtype=bool)
            hops = truth._hops_from(surge.node, surge.radius_hops)
            for node, hop in hops.items():
                decay[self.index[node]] = 1.0 - hop / (surge.radius_hops + 1)
                reached[self.index[node]] = True
            self._surges.append((
                surge.start,
                surge.start + surge.duration,
                max(surge.duration // 4, 1),
                surge.magnitude,
                decay,
                reached,
            ))
        self._weather = [
            (window.start, window.end, window.density_factor)
            for window in truth.weather
        ]

    def density(self, node: np.ndarray, t: np.ndarray) -> np.ndarray:
        """True density (veh/km) at junction ``node[i]`` and time
        ``t[i]``; both are integer arrays of one length."""
        if len(t) and not (
            self.t_lo <= int(t.min()) and int(t.max()) < self.t_hi
        ):
            raise ValueError(
                f"time outside the field's span [{self.t_lo}, {self.t_hi})"
            )
        demand = (
            self._base[node]
            * self._profile[t - self.t_lo]
            * self._amplitude[node]
        )
        angle = 2.0 * math.pi * t / 1800.0 + self._phase[node]
        wiggle = 1.5 * np.fromiter(
            map(math.sin, angle.tolist()), dtype=np.float64, count=len(t)
        )
        extra = 0.0
        for start, stop, added in self._incidents:
            active = (start <= t) & (t < stop)
            extra = extra + np.where(active, added[node], 0.0)
        density = demand + wiggle + extra
        extra = 0.0
        for start, stop, edge, magnitude, decay, reached in self._surges:
            ramp = np.minimum(
                1.0, np.minimum((t - start) / edge, (stop - t) / edge)
            )
            felt = (start <= t) & (t < stop) & (ramp > 0.0) & reached[node]
            extra = extra + np.where(
                felt, magnitude * ramp * decay[node], 0.0
            )
        density = density + extra
        factor = 1.0
        for start, end, slowdown in self._weather:
            factor = factor * np.where(
                (start <= t) & (t < end), slowdown, 1.0
            )
        density = density * factor
        return np.minimum(np.maximum(density, 0.0), JAM_DENSITY_VEH_KM)

    def speed(self, node: np.ndarray, t: np.ndarray) -> np.ndarray:
        """True speed (km/h), cell for cell
        :meth:`TrafficGroundTruth.speed`."""
        return greenshields_speeds(self.density(node, t))

    def is_congested(self, node: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Whether each junction is truly congested at its time."""
        return self.density(node, t) >= CONGESTION_DENSITY
