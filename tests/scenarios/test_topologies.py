"""Topology-family generators: determinism, connectivity and the
properties the rest of the substrate relies on (regions populated,
edge lengths present, same bbox as Dublin)."""

import networkx as nx
import pytest

from repro.dublin.network import DUBLIN_BBOX, REGIONS
from repro.scenarios import (
    TopologySpec,
    build_network,
    generate_multi_centre_network,
    generate_radial_network,
)

from ..dublin.helpers import region_of


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: generate_radial_network(
            rings=4, spokes=8, seed=seed
        ),
        lambda seed: generate_multi_centre_network(
            centres=3, block=4, seed=seed
        ),
    ],
    ids=["radial", "multi_centre"],
)
class TestFamilies:
    def test_deterministic(self, make):
        a, b = make(7), make(7)
        assert sorted(a.graph.nodes) == sorted(b.graph.nodes)
        assert sorted(a.graph.edges) == sorted(b.graph.edges)

    def test_seed_changes_layout(self, make):
        a, b = make(1), make(2)
        pos_a = [a.position(n) for n in sorted(a.graph.nodes)[:10]]
        pos_b = [b.position(n) for n in sorted(b.graph.nodes)[:10]]
        assert pos_a != pos_b

    def test_connected(self, make):
        network = make(5)
        assert nx.is_connected(network.graph)

    def test_every_region_populated(self, make):
        network = make(5)
        seen = {
            region_of(network, *network.position(node))
            for node in network.graph.nodes
        }
        assert seen == set(REGIONS)

    def test_edges_carry_lengths(self, make):
        network = make(5)
        for _, _, attrs in network.graph.edges(data=True):
            assert attrs["length_m"] > 0

    def test_nodes_inside_bbox(self, make):
        network = make(5)
        lon_min, lat_min, lon_max, lat_max = DUBLIN_BBOX
        margin_lon = (lon_max - lon_min) * 0.25
        margin_lat = (lat_max - lat_min) * 0.25
        for node in network.graph.nodes:
            lon, lat = network.position(node)
            assert lon_min - margin_lon <= lon <= lon_max + margin_lon
            assert lat_min - margin_lat <= lat <= lat_max + margin_lat


class TestDispatch:
    def test_grid_dispatch(self):
        network = build_network(
            TopologySpec(family="grid", rows=4, cols=5), seed=1
        )
        assert network.graph.number_of_nodes() == 20

    def test_radial_dispatch(self):
        network = build_network(
            TopologySpec(family="radial", rings=3, spokes=6), seed=1
        )
        # Centre plus rings x spokes.
        assert network.graph.number_of_nodes() == 1 + 3 * 6

    def test_multi_centre_dispatch(self):
        network = build_network(
            TopologySpec(family="multi_centre", centres=2, block=3),
            seed=1,
        )
        assert network.graph.number_of_nodes() <= 2 * 9
        assert nx.is_connected(network.graph)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_radial_network(rings=1, spokes=8)
        with pytest.raises(ValueError):
            generate_multi_centre_network(centres=1, block=4)
