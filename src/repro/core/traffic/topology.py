"""Static knowledge about the monitored city used by the CE rules.

The traffic CE definitions need to know which SCATS sensors belong to
which intersection, where each intersection is located, and how to
resolve the paper's ``close(LonB, LatB, LonInt, LatInt)`` predicate
between a bus position and an intersection.  That static knowledge is
bundled in :class:`ScatsTopology`, built once per deployment (in the
Dublin scenario it is derived from the street network).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from ..geo import SpatialGrid, distance_m

SensorKey = tuple  # (intersection, approach, sensor)


@dataclass(frozen=True)
class Intersection:
    """A SCATS intersection: identity, position and mounted sensors."""

    id: str
    lon: float
    lat: float
    sensors: tuple[SensorKey, ...]


class ScatsTopology:
    """Registry of SCATS intersections with a spatial index.

    Parameters
    ----------
    intersections:
        The SCATS intersections of the deployment.
    close_radius_m:
        Threshold of the ``close`` predicate: a bus within this many
        metres of an intersection "moves close" to it.
    """

    def __init__(
        self,
        intersections: Iterable[Intersection],
        *,
        close_radius_m: float = 150.0,
    ):
        self.close_radius_m = close_radius_m
        self._by_id: dict[str, Intersection] = {}
        for inter in intersections:
            if inter.id in self._by_id:
                raise ValueError(f"duplicate intersection id: {inter.id!r}")
            self._by_id[inter.id] = inter
        if self._by_id:
            ref_lat = sum(i.lat for i in self._by_id.values()) / len(
                self._by_id
            )
        else:
            ref_lat = 0.0
        self._grid = SpatialGrid(close_radius_m, ref_lat)
        for inter in self._by_id.values():
            self._grid.insert(inter.id, inter.lon, inter.lat)
        #: Memoised ``close`` lookups.  Bus positions repeat across
        #: overlapping windows, so the topology keeps the answer per
        #: position instead of re-probing the spatial grid.
        self._near_cache: dict[tuple[float, float], list[str]] = {}
        #: Integer positions of the ids (:meth:`_positions`), built on
        #: first use.
        self._index = None

    # -- durability ----------------------------------------------------
    # The memoised ``close`` lookups grow with every distinct bus
    # position seen — hundreds of kilobytes over a long run — and are
    # recomputable from the spatial grid on demand.  Checkpoints drop
    # the cache (and the lazily built id index); the restored topology
    # simply re-warms them.
    def __getstate__(self):
        state = dict(self.__dict__)
        state["_near_cache"] = {}
        state["_index"] = None
        return state

    # ------------------------------------------------------------------
    @classmethod
    def from_mappings(
        cls,
        locations: Mapping[str, tuple[float, float]],
        sensors: Mapping[str, Iterable[SensorKey]],
        *,
        close_radius_m: float = 150.0,
    ) -> "ScatsTopology":
        """Build a topology from id→(lon, lat) and id→sensors maps."""
        intersections = [
            Intersection(
                id=int_id,
                lon=lon,
                lat=lat,
                sensors=tuple(sensors.get(int_id, ())),
            )
            for int_id, (lon, lat) in locations.items()
        ]
        return cls(intersections, close_radius_m=close_radius_m)

    # ------------------------------------------------------------------
    def __contains__(self, int_id: str) -> bool:
        return int_id in self._by_id

    def __len__(self) -> int:
        return len(self._by_id)

    def ids(self) -> list[str]:
        """All intersection ids."""
        return list(self._by_id)

    def get(self, int_id: str) -> Intersection:
        """Intersection by id (KeyError if unknown)."""
        return self._by_id[int_id]

    def location(self, int_id: str) -> tuple[float, float]:
        """``(lon, lat)`` of an intersection."""
        inter = self._by_id[int_id]
        return (inter.lon, inter.lat)

    def sensors_of(self, int_id: str) -> tuple[SensorKey, ...]:
        """Sensor keys mounted on an intersection."""
        return self._by_id[int_id].sensors

    def _positions(self):
        """``(id -> position in ids(), the grid's items as positions)``,
        built on first use."""
        if self._index is None:
            position = {int_id: i for i, int_id in enumerate(self._by_id)}
            self._index = (
                position,
                np.array(
                    [position[i] for i in self._grid.indexed_items()],
                    dtype=np.int64,
                ),
            )
        return self._index

    def index_of(self, int_id: str):
        """Position of an intersection in :meth:`ids` (``None`` if
        unknown) — the integer :meth:`close_join` reports."""
        return self._positions()[0].get(int_id)

    def close_join(self, lon, lat) -> tuple[np.ndarray, np.ndarray]:
        """The ``close`` predicate of arrays of points against every
        intersection, as a CSR pair ``(offsets, intersections)``:
        point ``i`` is close to the intersections at positions
        ``intersections[offsets[i]:offsets[i + 1]]`` of :meth:`ids`,
        in :meth:`intersections_close_to`'s order and with its
        decisions (:meth:`repro.core.geo.SpatialGrid.near_many`)."""
        offsets, found = self._grid.near_many(lon, lat)
        return offsets, self._positions()[1][found]

    def intersections_close_to(self, lon: float, lat: float) -> list[str]:
        """Ids of intersections the point is ``close`` to (the paper's
        ``close`` predicate against every intersection)."""
        key = (lon, lat)
        hit = self._near_cache.get(key)
        if hit is None:
            if len(self._near_cache) >= 65536:
                # Positions are effectively finite per deployment; the
                # cap only guards unbounded synthetic streams.
                self._near_cache.clear()
            hit = self._near_cache[key] = list(self._grid.near(lon, lat))
        return hit

    def nearest_intersection(
        self, lon: float, lat: float
    ) -> tuple[str, float]:
        """Nearest intersection id and its distance in metres.

        Falls back to a linear scan when nothing is within the close
        radius (used to map crowd answers given by ``(Lon, Lat)`` back
        to an intersection).
        """
        near = self._grid.near(lon, lat)
        candidates = near if near else list(self._by_id)
        best_id, best_d = None, float("inf")
        for int_id in candidates:
            inter = self._by_id[int_id]
            d = distance_m(lon, lat, inter.lon, inter.lat)
            if d < best_d:
                best_id, best_d = int_id, d
        if best_id is None:
            raise ValueError("topology has no intersections")
        return best_id, best_d
