"""Tests for the procedural street network and SCATS placement."""

import networkx as nx
import pytest

from repro.dublin import (
    DUBLIN_BBOX,
    REGIONS,
    generate_street_network,
    place_scats_topology,
)

from .helpers import region_of


@pytest.fixture(scope="module")
def network():
    return generate_street_network(rows=12, cols=16, seed=3)


class TestGenerateStreetNetwork:
    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="3x3"):
            generate_street_network(rows=2, cols=10)
        with pytest.raises(ValueError, match="removal"):
            generate_street_network(removal_rate=0.9)

    def test_connected(self, network):
        assert nx.is_connected(network.graph)

    def test_positions_inside_bbox(self, network):
        lon_min, lat_min, lon_max, lat_max = DUBLIN_BBOX
        margin_lon = (lon_max - lon_min) * 0.05
        margin_lat = (lat_max - lat_min) * 0.05
        for node in network.graph.nodes:
            lon, lat = network.position(node)
            assert lon_min - margin_lon <= lon <= lon_max + margin_lon
            assert lat_min - margin_lat <= lat <= lat_max + margin_lat

    def test_edges_have_lengths(self, network):
        for _, _, data in network.graph.edges(data=True):
            assert data["length_m"] > 0

    def test_deterministic(self):
        a = generate_street_network(rows=8, cols=8, seed=5)
        b = generate_street_network(rows=8, cols=8, seed=5)
        assert sorted(a.graph.nodes) == sorted(b.graph.nodes)
        assert sorted(a.graph.edges) == sorted(b.graph.edges)

    def test_seed_changes_city(self):
        a = generate_street_network(rows=8, cols=8, seed=5)
        b = generate_street_network(rows=8, cols=8, seed=6)
        assert sorted(a.graph.edges) != sorted(b.graph.edges)

    def test_shortest_path(self, network):
        nodes = sorted(network.graph.nodes)
        path = network.shortest_path(nodes[0], nodes[-1])
        assert path[0] == nodes[0]
        assert path[-1] == nodes[-1]
        for a, b in zip(path, path[1:]):
            assert network.graph.has_edge(a, b)

    def test_nearest_node(self, network):
        node = sorted(network.graph.nodes)[10]
        lon, lat = network.position(node)
        assert network.nearest_node(lon, lat) == node


class TestRegions:
    def test_all_regions_present(self, network):
        seen = {
            region_of(network, *network.position(n))
            for n in network.graph.nodes
        }
        assert seen == set(REGIONS)

    def test_centre_is_central(self, network):
        c_lon, c_lat = network.centre
        assert region_of(network, c_lon, c_lat) == "central"

    def test_compass_regions(self, network):
        lon_min, lat_min, lon_max, lat_max = network.bbox
        c_lon, c_lat = network.centre
        assert region_of(network, c_lon, lat_max) == "north"
        assert region_of(network, lon_min, c_lat) == "west"
        assert region_of(network, lon_max, lat_min) == "south"


class TestPlaceScatsTopology:
    def test_places_requested_count(self, network):
        topo, node_of = place_scats_topology(
            network, n_intersections=50, seed=1
        )
        assert len(topo) == 50
        assert set(node_of) == set(topo.ids())

    def test_capped_at_junction_count(self, network):
        n = network.n_junctions()
        topo, _ = place_scats_topology(
            network, n_intersections=n + 500, seed=1
        )
        assert len(topo) == n

    def test_sensor_counts_in_range(self, network):
        topo, _ = place_scats_topology(
            network, n_intersections=40, sensors_range=(2, 4), seed=1
        )
        for int_id in topo.ids():
            assert 2 <= len(topo.sensors_of(int_id)) <= 4

    def test_unique_junctions(self, network):
        _, node_of = place_scats_topology(network, n_intersections=60, seed=2)
        assert len(set(node_of.values())) == 60

    def test_locations_match_junctions(self, network):
        topo, node_of = place_scats_topology(
            network, n_intersections=10, seed=3
        )
        for int_id in topo.ids():
            assert topo.location(int_id) == network.position(node_of[int_id])

    def test_validates_sensor_range(self, network):
        with pytest.raises(ValueError):
            place_scats_topology(network, sensors_range=(0, 2))
        with pytest.raises(ValueError):
            place_scats_topology(network, sensors_range=(3, 2))

    def test_deterministic(self, network):
        a, _ = place_scats_topology(network, n_intersections=30, seed=7)
        b, _ = place_scats_topology(network, n_intersections=30, seed=7)
        assert a.ids() == b.ids()
        assert all(a.location(i) == b.location(i) for i in a.ids())

    def test_biased_towards_centre(self, network):
        topo, _ = place_scats_topology(network, n_intersections=80, seed=4)
        central = sum(
            1
            for i in topo.ids()
            if region_of(network, *topo.location(i)) == "central"
        )
        # The central window is 1/9 of the bbox area; a uniform draw
        # would land ~9 of 80 there. The bias should clearly beat that.
        assert central >= 12
