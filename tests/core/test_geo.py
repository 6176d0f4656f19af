"""Tests for the geographic helpers behind the ``close`` predicate."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.geo import SpatialGrid, close, distance_m

# Dublin-ish reference point.
LON, LAT = -6.26, 53.35


class TestDistance:
    def test_zero(self):
        assert distance_m(LON, LAT, LON, LAT) == 0.0

    def test_one_degree_latitude(self):
        d = distance_m(LON, LAT, LON, LAT + 1.0)
        assert d == pytest.approx(111_195, rel=0.01)

    def test_longitude_shrinks_with_latitude(self):
        d_equator = distance_m(0, 0, 1, 0)
        d_dublin = distance_m(LON, LAT, LON + 1, LAT)
        assert d_dublin < d_equator
        assert d_dublin == pytest.approx(
            d_equator * math.cos(math.radians(LAT)), rel=0.01
        )

    def test_symmetry(self):
        a = distance_m(LON, LAT, LON + 0.01, LAT + 0.01)
        b = distance_m(LON + 0.01, LAT + 0.01, LON, LAT)
        assert a == pytest.approx(b)

    def test_close_predicate(self):
        near_lat = LAT + 100 / 111_195  # ~100 m north
        assert close(LON, LAT, LON, near_lat, radius_m=150)
        assert not close(LON, LAT, LON, near_lat, radius_m=50)


class TestSpatialGrid:
    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            SpatialGrid(0, LAT)

    def test_finds_items_in_radius(self):
        grid = SpatialGrid(150, LAT)
        grid.insert("here", LON, LAT)
        grid.insert("far", LON + 0.1, LAT)
        assert grid.near(LON, LAT) == ["here"]

    def test_empty_grid(self):
        grid = SpatialGrid(150, LAT)
        assert grid.near(LON, LAT) == []

    def test_boundary_items_found_across_cells(self):
        grid = SpatialGrid(150, LAT)
        # Place items just either side of a cell boundary.
        offset = 140 / 111_195
        grid.insert("north", LON, LAT + offset)
        grid.insert("south", LON, LAT - offset)
        found = set(grid.near(LON, LAT))
        assert found == {"north", "south"}

    @given(
        st.floats(-0.02, 0.02),
        st.floats(-0.02, 0.02),
    )
    def test_grid_matches_linear_scan(self, dlon, dlat):
        radius = 200.0
        grid = SpatialGrid(radius, LAT)
        points = [
            ("a", LON + 0.001, LAT),
            ("b", LON, LAT + 0.001),
            ("c", LON + 0.01, LAT + 0.01),
            ("d", LON - 0.015, LAT - 0.002),
        ]
        for name, plon, plat in points:
            grid.insert(name, plon, plat)
        qlon, qlat = LON + dlon, LAT + dlat
        expected = {
            name
            for name, plon, plat in points
            if distance_m(qlon, qlat, plon, plat) <= radius
        }
        assert set(grid.near(qlon, qlat)) == expected


def _ulps(x, k):
    """``x`` moved ``k`` representable doubles up (down if negative)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


@st.composite
def _grids_and_points(draw):
    """A grid with a few items and query points chosen to be awkward:
    anywhere nearby, on the borders between grid cells, and a few ulps
    either side of exactly ``radius`` metres from an item."""
    radius = draw(st.sampled_from((60.0, 150.0, 400.0)))
    item_lat = draw(st.sampled_from((LAT, 0.0, -33.9, 70.0)))
    # A reference latitude far from the items sizes the cells wrongly
    # and the 3x3 probe misses true neighbours: the array form must
    # miss the same ones.
    reference_lat = draw(st.sampled_from((item_lat, item_lat, 0.0, 75.0)))
    grid = SpatialGrid(radius, reference_lat)
    offset = st.floats(-0.012, 0.012)
    items = draw(st.lists(st.tuples(offset, offset), max_size=12))
    for i, (dlon, dlat) in enumerate(items):
        grid.insert(i, LON + dlon, item_lat + dlat)
    points = [
        (LON + dlon, item_lat + dlat)
        for dlon, dlat in draw(st.lists(st.tuples(offset, offset), max_size=12))
    ]
    for _ in range(draw(st.integers(0, 4))):
        # On a cell border, in longitude and in latitude.
        points.append((
            draw(st.integers(-3, 3)) * grid._dlon
            + math.floor(LON / grid._dlon) * grid._dlon,
            draw(st.integers(-3, 3)) * grid._dlat
            + math.floor(item_lat / grid._dlat) * grid._dlat,
        ))
    for dlon, dlat in items[:4]:
        # Due north of an item, bisected onto the last latitude still
        # within the radius, then moved a few ulps.
        ilon, ilat = LON + dlon, item_lat + dlat
        inside, outside = ilat, ilat + 2 * grid._dlat
        while math.nextafter(inside, outside) != outside:
            mid = (inside + outside) / 2
            if distance_m(ilon, mid, ilon, ilat) <= radius:
                inside = mid
            else:
                outside = mid
        points.append((ilon, _ulps(inside, draw(st.integers(-3, 3)))))
    return grid, points


class TestNearMany:
    """The array form of the ``close/4`` join against the scalar one."""

    @given(_grids_and_points())
    def test_matches_near_point_by_point(self, grid_and_points):
        grid, points = grid_and_points
        offsets, found = grid.near_many(
            [lon for lon, _ in points], [lat for _, lat in points]
        )
        assert len(offsets) == len(points) + 1 and offsets[0] == 0
        items = grid.indexed_items()
        for i, (lon, lat) in enumerate(points):
            # Same items, in the same order.
            assert [
                items[j] for j in found[offsets[i]:offsets[i + 1]]
            ] == grid.near(lon, lat)

    def test_empty_grid_and_no_points(self):
        grid = SpatialGrid(150, LAT)
        offsets, found = grid.near_many([LON, LON], [LAT, LAT])
        assert offsets.tolist() == [0, 0, 0] and not len(found)
        grid.insert("here", LON, LAT)
        offsets, found = grid.near_many([], [])
        assert offsets.tolist() == [0] and not len(found)

    def test_insert_after_a_join_is_seen(self):
        grid = SpatialGrid(150, LAT)
        grid.insert("a", LON, LAT)
        assert grid.near_many([LON], [LAT])[1].tolist() == [0]
        grid.insert("b", LON, LAT)
        assert grid.near_many([LON], [LAT])[1].tolist() == [0, 1]
        assert grid.indexed_items() == ["a", "b"]

    def test_borderline_pairs_are_decided_by_the_scalar_distance(
        self, monkeypatch
    ):
        """Inside the guard band the array distance is not trusted."""
        import repro.core.geo as geo

        grid = SpatialGrid(150, LAT)
        grid.insert("a", LON, LAT)
        lat = LAT + 150 / 111_195
        asked = []

        def scalar(*args):
            asked.append(args)
            return distance_m(*args)

        monkeypatch.setattr(geo, "distance_m", scalar)
        monkeypatch.setattr(geo, "RADIUS_GUARD_M", 5.0)
        grid.near_many([LON, LON], [lat, LAT])
        assert asked == [(LON, lat, LON, LAT)]
