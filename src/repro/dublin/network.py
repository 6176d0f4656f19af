"""Procedural street network — the OpenStreetMap substitute.

The paper builds its traffic graph from an OpenStreetMap extract of
Dublin: "the network is restricted to a bounding window of the size of
the city ... every street is split at every junction in order to
retrieve street segments.  Thus, we obtain a graph that represents the
street network" (Section 7.3, Figures 7–8).  Offline we generate a
comparable planar road graph procedurally: a jittered grid core (the
inner-city block structure), radial arteries towards the centre and an
orbital ring, inside Dublin's bounding box.

SCATS intersections are then placed on a subset of junctions (Figure 8
shows the 966 SCATS locations as dots on that network), and the city is
partitioned into the four regions used to distribute event recognition:
"in Dublin SCATS sensors are placed into the intersections of four
geographical areas: central city, north city, west city and south
city" (Section 7.1).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from ..core.geo import distance_m
from ..core.traffic import Intersection, ScatsTopology

#: Dublin's approximate bounding box (lon_min, lat_min, lon_max, lat_max).
DUBLIN_BBOX = (-6.38, 53.28, -6.14, 53.42)

REGIONS = ("central", "north", "west", "south")


@dataclass
class StreetNetwork:
    """A city street graph with junction coordinates and regions.

    Attributes
    ----------
    graph:
        Undirected :class:`networkx.Graph`; nodes are junction ids and
        carry ``lon``/``lat`` attributes, edges carry ``length_m``.
    bbox:
        The bounding window (lon_min, lat_min, lon_max, lat_max).
    """

    graph: nx.Graph
    bbox: tuple[float, float, float, float] = DUBLIN_BBOX
    _positions: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._positions = {
            node: (data["lon"], data["lat"])
            for node, data in self.graph.nodes(data=True)
        }

    # ------------------------------------------------------------------
    def position(self, node) -> tuple[float, float]:
        """``(lon, lat)`` of a junction."""
        return self._positions[node]

    def positions(self) -> dict:
        """All junction positions (node → (lon, lat))."""
        return dict(self._positions)

    @property
    def centre(self) -> tuple[float, float]:
        """Centre of the bounding box."""
        lon_min, lat_min, lon_max, lat_max = self.bbox
        return ((lon_min + lon_max) / 2.0, (lat_min + lat_max) / 2.0)

    def n_junctions(self) -> int:
        """Number of junctions."""
        return self.graph.number_of_nodes()

    def region_codes(self, lon, lat) -> np.ndarray:
        """The city region of each point, as indexes into ``REGIONS``:
        central within the inner window, otherwise north / west / south
        by bearing from the centre.  ``lon``/``lat`` are float arrays
        (or scalars) of one shape."""
        c_lon, c_lat = self.centre
        lon_min, lat_min, lon_max, lat_max = self.bbox
        lon = np.asarray(lon, dtype=np.float64)
        lat = np.asarray(lat, dtype=np.float64)
        d_lon = np.abs(lon - c_lon)
        d_lat = np.abs(lat - c_lat)
        central = (d_lon <= (lon_max - lon_min) / 6.0) & (
            d_lat <= (lat_max - lat_min) / 6.0
        )
        north = (lat >= c_lat) & (d_lat >= d_lon * 0.5)
        return np.select(
            [central, north, lon <= c_lon],
            [REGIONS.index(name) for name in ("central", "north", "west")],
            REGIONS.index("south"),
        )

    def nearest_node(self, lon: float, lat: float):
        """The junction closest to a point (linear scan; used to map
        sensor locations onto the graph, as in Section 7.3)."""
        return min(
            self._positions,
            key=lambda n: distance_m(
                lon, lat, self._positions[n][0], self._positions[n][1]
            ),
        )

    def shortest_path(self, origin, destination) -> list:
        """Length-weighted shortest path between two junctions."""
        return nx.shortest_path(
            self.graph, origin, destination, weight="length_m"
        )


def _edge_length(positions, a, b) -> float:
    (lon_a, lat_a), (lon_b, lat_b) = positions[a], positions[b]
    return distance_m(lon_a, lat_a, lon_b, lat_b)


def generate_street_network(
    *,
    rows: int = 28,
    cols: int = 40,
    seed: int = 0,
    bbox: tuple[float, float, float, float] = DUBLIN_BBOX,
    removal_rate: float = 0.12,
    jitter: float = 0.25,
    n_radials: int = 8,
) -> StreetNetwork:
    """Generate a Dublin-like street network.

    Construction: a ``rows × cols`` grid of junctions with jittered
    positions inside ``bbox``; a fraction of grid edges is removed
    (dead ends, rivers, parks); diagonal radial arteries connect outer
    junctions towards the centre; the largest connected component is
    kept so every junction is reachable.

    Parameters
    ----------
    rows, cols:
        Grid dimensions; the default yields ~1100 junctions, enough to
        host the 966-intersection SCATS deployment.
    seed:
        RNG seed; identical seeds generate identical cities.
    removal_rate:
        Fraction of grid edges deleted.
    jitter:
        Positional jitter as a fraction of the cell size.
    n_radials:
        Number of radial arteries.
    """
    if rows < 3 or cols < 3:
        raise ValueError("network needs at least a 3x3 grid")
    if not 0.0 <= removal_rate < 0.5:
        raise ValueError("removal rate must be in [0, 0.5)")
    rng = random.Random(seed)
    lon_min, lat_min, lon_max, lat_max = bbox
    d_lon = (lon_max - lon_min) / (cols - 1)
    d_lat = (lat_max - lat_min) / (rows - 1)

    graph = nx.Graph()
    positions: dict = {}
    for r in range(rows):
        for c in range(cols):
            node = f"J{r:03d}_{c:03d}"
            lon = lon_min + c * d_lon + rng.uniform(-jitter, jitter) * d_lon
            lat = lat_min + r * d_lat + rng.uniform(-jitter, jitter) * d_lat
            positions[node] = (lon, lat)
            graph.add_node(node, lon=lon, lat=lat)

    # Grid edges with random removals.
    def _maybe_edge(a, b):
        if rng.random() >= removal_rate:
            graph.add_edge(a, b, length_m=_edge_length(positions, a, b))

    for r in range(rows):
        for c in range(cols):
            node = f"J{r:03d}_{c:03d}"
            if c + 1 < cols:
                _maybe_edge(node, f"J{r:03d}_{c + 1:03d}")
            if r + 1 < rows:
                _maybe_edge(node, f"J{r + 1:03d}_{c:03d}")

    # Radial arteries: connect rim junctions towards the centre by
    # chaining grid diagonal steps (keeps the graph planar-ish).
    centre_r, centre_c = rows // 2, cols // 2
    for k in range(n_radials):
        angle = 2.0 * math.pi * k / n_radials
        r, c = centre_r, centre_c
        while 0 < r < rows - 1 and 0 < c < cols - 1:
            nr = r + (1 if math.sin(angle) > 0.3 else -1 if math.sin(angle) < -0.3 else 0)
            nc = c + (1 if math.cos(angle) > 0.3 else -1 if math.cos(angle) < -0.3 else 0)
            if (nr, nc) == (r, c):
                break
            a, b = f"J{r:03d}_{c:03d}", f"J{nr:03d}_{nc:03d}"
            graph.add_edge(a, b, length_m=_edge_length(positions, a, b))
            r, c = nr, nc

    # Keep the largest connected component.
    largest = max(nx.connected_components(graph), key=len)
    graph = graph.subgraph(largest).copy()
    return StreetNetwork(graph=graph, bbox=bbox)


def weighted_sample(
    rng: random.Random, items: list, weights: list[float], k: int
) -> list:
    """``k`` of ``items`` drawn without replacement, each draw with
    probability proportional to its weight among those left: one
    ``rng.random()`` a draw, scaled by the weights' total and matched
    to the first item whose running sum of weights reaches it.

    The running sums are one ``np.cumsum`` a draw, added left to
    right as a scalar loop adds them, so the draws are those of that
    loop bit for bit (``tests/dublin/helpers.py::loop_weighted_sample``;
    the placement's loop before it summed with ``sum``, which adds left
    to right on CPython 3.11 and compensates from 3.12 on).
    """
    items = list(items)
    weights = np.asarray(weights, dtype=np.float64)
    chosen = []
    for _ in range(k):
        running = np.cumsum(weights)
        i = int(np.searchsorted(running, rng.random() * running[-1], "left"))
        chosen.append(items.pop(i))
        weights = np.delete(weights, i)
    return chosen


def place_scats_topology(
    network: StreetNetwork,
    *,
    n_intersections: int = 966,
    sensors_range: tuple[int, int] = (2, 4),
    close_radius_m: float = 150.0,
    seed: int = 0,
) -> tuple[ScatsTopology, dict]:
    """Place SCATS intersections on junctions of the network.

    Junctions are sampled with a bias towards the city centre (the real
    deployment is densest in central Dublin).  Each intersection gets
    between ``sensors_range[0]`` and ``sensors_range[1]`` vehicle
    detectors, one per approach.

    Returns the :class:`~repro.core.traffic.ScatsTopology` and the
    mapping ``intersection_id → junction node``.
    """
    lo, hi = sensors_range
    if lo < 1 or hi < lo:
        raise ValueError("sensors_range must satisfy 1 <= lo <= hi")
    rng = random.Random(seed)
    nodes = list(network.graph.nodes)
    n_intersections = min(n_intersections, len(nodes))

    c_lon, c_lat = network.centre

    def _weight(node) -> float:
        lon, lat = network.position(node)
        # Inverse-distance bias towards the centre.
        return 1.0 / (1.0 + 25.0 * math.hypot(lon - c_lon, lat - c_lat))

    chosen = weighted_sample(
        rng, nodes, [_weight(n) for n in nodes], n_intersections
    )

    approaches = ("N", "E", "S", "W")
    intersections = []
    node_of: dict = {}
    for i, node in enumerate(sorted(chosen)):
        int_id = f"SCATS{i:04d}"
        lon, lat = network.position(node)
        n_sensors = rng.randint(lo, hi)
        sensors = tuple(
            (int_id, approaches[j % 4], f"S{j}") for j in range(n_sensors)
        )
        intersections.append(Intersection(int_id, lon, lat, sensors))
        node_of[int_id] = node
    topology = ScatsTopology(intersections, close_radius_m=close_radius_m)
    return topology, node_of
