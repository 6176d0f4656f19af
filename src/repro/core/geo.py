"""Small geographic helpers shared by the traffic CE rules.

The paper's rules use an atemporal ``close/4`` predicate "computing the
distance between two points and comparing them against a threshold"
(Section 4.3).  City-scale distances are computed with an
equirectangular approximation, which is accurate to well under a metre
over the few hundred metres the ``close`` predicate cares about.
"""

from __future__ import annotations

import math

import numpy as np

#: Mean Earth radius in metres.
EARTH_RADIUS_M = 6_371_000.0

#: :meth:`SpatialGrid.near_many` decides a pair with the array form of
#: :func:`distance_m`, whose ``cos``/``hypot`` may differ from
#: :mod:`math`'s in the last place; a pair whose array distance lies
#: within this many metres of the radius is re-decided by the scalar
#: function, so both always agree.  Rounding moves a distance of a few
#: hundred metres by ~1e-13 m; the band is seven orders wider.
RADIUS_GUARD_M = 1e-6


def distance_m(lon1: float, lat1: float, lon2: float, lat2: float) -> float:
    """Distance in metres between two WGS84 points (equirectangular)."""
    mean_lat = math.radians((lat1 + lat2) / 2.0)
    dx = math.radians(lon2 - lon1) * math.cos(mean_lat)
    dy = math.radians(lat2 - lat1)
    return EARTH_RADIUS_M * math.hypot(dx, dy)


def close(
    lon1: float,
    lat1: float,
    lon2: float,
    lat2: float,
    radius_m: float,
) -> bool:
    """The paper's ``close`` predicate: within ``radius_m`` metres."""
    return distance_m(lon1, lat1, lon2, lat2) <= radius_m


class SpatialGrid:
    """A uniform lon/lat grid index for radius queries.

    The bus rules repeatedly ask "which SCATS intersections is this bus
    close to?"; a linear scan over ~1000 intersections per ``move`` SDE
    would dominate recognition time, so intersections are bucketed into
    grid cells roughly the size of the query radius.
    """

    def __init__(self, radius_m: float, reference_lat: float):
        if radius_m <= 0:
            raise ValueError("radius must be positive")
        self.radius_m = radius_m
        # Cell size in degrees, chosen so one cell spans ~radius metres.
        self._dlat = math.degrees(radius_m / EARTH_RADIUS_M)
        cos_lat = max(math.cos(math.radians(reference_lat)), 1e-6)
        self._dlon = self._dlat / cos_lat
        self._cells: dict[tuple[int, int], list[tuple[object, float, float]]] = {}
        #: Array form of the cells, built by the first
        #: :meth:`near_many` after an insert (never pickled).
        self._index = None

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_index"] = None
        return state

    def _cell(self, lon: float, lat: float) -> tuple[int, int]:
        return (math.floor(lon / self._dlon), math.floor(lat / self._dlat))

    def insert(self, item: object, lon: float, lat: float) -> None:
        """Index ``item`` at position ``(lon, lat)``."""
        self._cells.setdefault(self._cell(lon, lat), []).append(
            (item, lon, lat)
        )
        self._index = None

    def near(self, lon: float, lat: float) -> list[object]:
        """All items within ``radius_m`` metres of ``(lon, lat)``."""
        cx, cy = self._cell(lon, lat)
        found = []
        for gx in (cx - 1, cx, cx + 1):
            for gy in (cy - 1, cy, cy + 1):
                for item, ilon, ilat in self._cells.get((gx, gy), ()):
                    if distance_m(lon, lat, ilon, ilat) <= self.radius_m:
                        found.append(item)
        return found

    def _cell_index(self):
        """The items as arrays sorted by ``(cell x, cell y, insertion
        within the cell)`` — a cell's items are then one slice, in
        :meth:`near`'s order, and the three cells ``(gx, cy - 1 ..
        cy + 1)`` one longer slice — with one integer key per item
        that orders the same way."""
        if self._index is None:
            cells = sorted(self._cells)
            items, lon, lat, cx, cy = [], [], [], [], []
            for cell in cells:
                for item, ilon, ilat in self._cells[cell]:
                    items.append(item)
                    lon.append(ilon)
                    lat.append(ilat)
                    cx.append(cell[0])
                    cy.append(cell[1])
            x0, y0 = cells[0][0], min(cy) - 1
            #: Cell rows ``y0 .. max(cy) + 1``: one empty row either
            #: side, so a clipped query row never matches an item.
            span = max(cy) + 2 - y0
            keys = (np.array(cx) - x0) * span + (np.array(cy) - y0)
            self._index = (
                items, np.array(lon), np.array(lat), keys, x0, y0, span,
                cells[-1][0] - x0,
            )
        return self._index

    def indexed_items(self) -> list[object]:
        """The items in the order :meth:`near_many` numbers them."""
        return self._cell_index()[0] if self._cells else []

    def near_many(self, lon, lat) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`near` for arrays of points, as a CSR pair.

        Returns ``(offsets, found)``: the items within ``radius_m`` of
        point ``i`` are ``found[offsets[i]:offsets[i + 1]]``, as
        positions in :meth:`indexed_items`, in exactly the order
        :meth:`near` lists them.  Same candidates (the 3x3 cells
        around the point's cell) and same decisions (see
        :data:`RADIUS_GUARD_M`).
        """
        lon = np.asarray(lon, dtype=np.float64)
        lat = np.asarray(lat, dtype=np.float64)
        n = len(lon)
        if not n or not self._cells:
            return np.zeros(n + 1, dtype=np.int64), np.empty(0, np.int64)
        _, ilon, ilat, keys, x0, y0, span, x_max = self._cell_index()
        cx = np.floor(lon / self._dlon).astype(np.int64) - x0
        cy = np.floor(lat / self._dlat).astype(np.int64) - y0
        y_lo = np.clip(cy - 1, 0, span - 1)
        y_hi = np.clip(cy + 1, 0, span - 1)
        # Candidate slices of the sorted items: per point, one per
        # neighbouring cell column, west to east.
        gx = cx[:, None] + np.arange(-1, 2)
        lo = np.searchsorted(keys, gx * span + y_lo[:, None], "left")
        hi = np.searchsorted(keys, gx * span + y_hi[:, None], "right")
        counts = np.where((gx >= 0) & (gx <= x_max), hi - lo, 0).ravel()
        total = int(counts.sum())
        first = np.cumsum(counts) - counts
        cand = np.repeat(lo.ravel() - first, counts) + np.arange(total)
        point = np.repeat(np.repeat(np.arange(n), 3), counts)
        # distance_m over the candidate pairs.
        plon, plat, clon, clat = lon[point], lat[point], ilon[cand], ilat[cand]
        mean_lat = np.radians((plat + clat) / 2.0)
        dx = np.radians(clon - plon) * np.cos(mean_lat)
        dy = np.radians(clat - plat)
        dist = EARTH_RADIUS_M * np.hypot(dx, dy)
        inside = dist <= self.radius_m
        for j in np.flatnonzero(
            np.abs(dist - self.radius_m) <= RADIUS_GUARD_M
        ).tolist():
            inside[j] = (
                distance_m(
                    float(plon[j]), float(plat[j]),
                    float(clon[j]), float(clat[j]),
                )
                <= self.radius_m
            )
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(point[inside], minlength=n), out=offsets[1:])
        return offsets, cand[inside]
