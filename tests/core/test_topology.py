"""Tests for the SCATS topology registry."""

import pytest

from repro.core.traffic import Intersection, ScatsTopology

LON, LAT = -6.26, 53.35
M = 1 / 111_195  # ~one metre in degrees of latitude


def _topology(radius=150.0):
    return ScatsTopology(
        [
            Intersection("I1", LON, LAT, (("I1", "A", "S1"), ("I1", "A", "S2"))),
            Intersection("I2", LON + 0.02, LAT, (("I2", "A", "S1"),)),
        ],
        close_radius_m=radius,
    )


class TestScatsTopology:
    def test_lookup(self):
        topo = _topology()
        assert "I1" in topo
        assert "nope" not in topo
        assert len(topo) == 2
        assert set(topo.ids()) == {"I1", "I2"}
        assert topo.location("I2") == (LON + 0.02, LAT)
        assert topo.sensors_of("I1") == (("I1", "A", "S1"), ("I1", "A", "S2"))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ScatsTopology(
                [
                    Intersection("I1", LON, LAT, ()),
                    Intersection("I1", LON, LAT, ()),
                ]
            )

    def test_close_query(self):
        topo = _topology()
        assert topo.intersections_close_to(LON, LAT + 50 * M) == ["I1"]
        assert topo.intersections_close_to(LON + 0.01, LAT) == []

    def test_close_join_lists_what_the_scalar_query_lists(self):
        topo = _topology()
        lons = [LON, LON + 0.01, LON + 0.02, LON]
        lats = [LAT + 50 * M, LAT, LAT - 100 * M, LAT + 200 * M]
        offsets, found = topo.close_join(lons, lats)
        ids = topo.ids()
        for i, (lon, lat) in enumerate(zip(lons, lats)):
            assert [
                ids[j] for j in found[offsets[i]:offsets[i + 1]]
            ] == topo.intersections_close_to(lon, lat)
        assert [topo.index_of(int_id) for int_id in ids] == [0, 1]
        assert topo.index_of("nope") is None

    def test_close_join_on_empty_topology(self):
        offsets, found = ScatsTopology([]).close_join([LON], [LAT])
        assert offsets.tolist() == [0, 0] and not len(found)

    def test_join_indexes_are_not_pickled(self):
        import pickle

        topo = _topology()
        before = len(pickle.dumps(topo))
        topo.close_join([LON], [LAT])
        topo.index_of("I1")
        assert len(pickle.dumps(topo)) == before
