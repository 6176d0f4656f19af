"""Tests for the fundamental-diagram ground-truth dynamics."""

import pytest

from repro.dublin import (
    CONGESTION_DENSITY,
    FREE_FLOW_SPEED_KMH,
    JAM_DENSITY_VEH_KM,
    Incident,
    TrafficGroundTruth,
    daily_profile,
    generate_street_network,
    greenshields_flow,
    greenshields_speed,
)


@pytest.fixture(scope="module")
def network():
    return generate_street_network(rows=8, cols=8, seed=2)


class TestGreenshields:
    def test_free_flow_at_zero_density(self):
        assert greenshields_speed(0.0) == FREE_FLOW_SPEED_KMH

    def test_standstill_at_jam(self):
        assert greenshields_speed(JAM_DENSITY_VEH_KM) == 0.0

    def test_flow_zero_at_both_extremes(self):
        assert greenshields_flow(0.0) == 0.0
        assert greenshields_flow(JAM_DENSITY_VEH_KM) == 0.0

    def test_flow_peaks_at_half_jam(self):
        half = JAM_DENSITY_VEH_KM / 2
        assert greenshields_flow(half) > greenshields_flow(half - 20)
        assert greenshields_flow(half) > greenshields_flow(half + 20)

    def test_clamps_out_of_range(self):
        assert greenshields_speed(-5.0) == FREE_FLOW_SPEED_KMH
        assert greenshields_speed(500.0) == 0.0

    def test_congested_branch_has_low_flow_high_density(self):
        # The basis of rule-set (2): on the congested branch density is
        # high while flow drops.
        congested_flow = greenshields_flow(100.0)
        free_flow = greenshields_flow(20.0)
        assert congested_flow < free_flow


class TestDailyProfile:
    def test_rush_hours_peak(self):
        h = 3600
        assert daily_profile(int(8.5 * h)) > daily_profile(12 * h)
        assert daily_profile(int(17.5 * h)) > daily_profile(12 * h)

    def test_night_dip(self):
        h = 3600
        assert daily_profile(int(3.5 * h)) < daily_profile(12 * h)

    def test_wraps_around_midnight(self):
        assert daily_profile(0) == pytest.approx(daily_profile(24 * 3600))


class TestTrafficGroundTruth:
    def test_density_within_physical_bounds(self, network):
        gt = TrafficGroundTruth(network, seed=1)
        for node in list(network.graph.nodes)[:10]:
            for t in (0, 3600 * 8, 3600 * 17, 3600 * 23):
                d = gt.density(node, t)
                assert 0.0 <= d <= JAM_DENSITY_VEH_KM

    def test_deterministic(self, network):
        a = TrafficGroundTruth(network, seed=1)
        b = TrafficGroundTruth(network, seed=1)
        node = next(iter(network.graph.nodes))
        assert a.density(node, 1234) == b.density(node, 1234)
        assert [i.node for i in a.incidents] == [i.node for i in b.incidents]

    def test_centre_busier_than_rim(self, network):
        gt = TrafficGroundTruth(network, seed=1, n_random_incidents=0)
        c_lon, c_lat = network.centre
        centre_node = network.nearest_node(c_lon, c_lat)
        lon_min, lat_min, *_ = network.bbox
        rim_node = network.nearest_node(lon_min, lat_min)
        t = int(8.5 * 3600)
        # Average over phases to remove the per-node wiggle.
        centre = sum(gt.density(centre_node, t + k) for k in range(0, 1800, 300))
        rim = sum(gt.density(rim_node, t + k) for k in range(0, 1800, 300))
        assert centre > rim

    def test_incident_raises_density(self, network):
        node = next(iter(network.graph.nodes))
        incident = Incident(node=node, start=1000, duration=600, severity=80.0)
        gt = TrafficGroundTruth(network, seed=1, incidents=[incident])
        before = gt.density(node, 900)
        during = gt.density(node, 1200)
        after = gt.density(node, 1700)
        assert during > before
        assert during > after

    def test_incident_spills_to_neighbours(self, network):
        node = next(iter(network.graph.nodes))
        neighbour = next(iter(network.graph.neighbors(node)))
        incident = Incident(node=node, start=0, duration=10_000, severity=80.0)
        gt = TrafficGroundTruth(network, seed=1, incidents=[incident])
        no_incident = TrafficGroundTruth(network, seed=1, incidents=[])
        assert gt.density(neighbour, 500) > no_incident.density(neighbour, 500)

    def test_incident_active_window(self):
        incident = Incident(node="x", start=100, duration=50)
        assert not incident.active(99)
        assert incident.active(100)
        assert incident.active(149)
        assert not incident.active(150)

    def test_congestion_classification(self, network):
        node = next(iter(network.graph.nodes))
        incident = Incident(node=node, start=0, duration=10_000, severity=120.0)
        gt = TrafficGroundTruth(network, seed=1, incidents=[incident])
        assert gt.is_congested(node, 500)
        assert gt.congestion_label(node, 500) == "congestion"
        assert gt.density(node, 500) >= CONGESTION_DENSITY

    def test_congested_nodes_lists_incident_site(self, network):
        node = next(iter(network.graph.nodes))
        incident = Incident(node=node, start=0, duration=10_000, severity=120.0)
        gt = TrafficGroundTruth(network, seed=1, incidents=[incident])
        assert gt.is_congested(node, 500)

    def test_random_incidents_respect_window(self, network):
        gt = TrafficGroundTruth(
            network, seed=3, n_random_incidents=5,
            incident_window=(1000, 2000),
        )
        assert len(gt.incidents) == 5
        for incident in gt.incidents:
            assert 1000 <= incident.start < 2000
