"""Tests for the SCATS and bus stream simulators."""

import pytest

from repro.core.geo import distance_m
from repro.dublin import (
    BusFleetSimulator,
    ScatsSensorSimulator,
    TrafficGroundTruth,
    generate_street_network,
    make_lines,
    place_scats_topology,
)

from .helpers import bus_events, scats_events, unreliable_buses


@pytest.fixture(scope="module")
def city():
    network = generate_street_network(rows=10, cols=10, seed=4)
    topology, node_of = place_scats_topology(
        network, n_intersections=20, seed=4
    )
    ground_truth = TrafficGroundTruth(network, seed=4, n_random_incidents=0)
    return network, topology, node_of, ground_truth


class TestScatsSimulator:
    def _sim(self, city, **kwargs):
        network, topology, node_of, gt = city
        return ScatsSensorSimulator(topology, node_of, gt, **kwargs)

    def test_validation(self, city):
        with pytest.raises(ValueError, match="period"):
            self._sim(city, period=0)
        with pytest.raises(ValueError, match="fault"):
            self._sim(city, fault_rate=1.5)

    def test_reporting_period(self, city):
        sim = self._sim(city, period=360, seed=1)
        events = sorted(scats_events(sim, 0, 3600), key=lambda e: e.time)
        by_sensor = {}
        for ev in events:
            key = (ev["intersection"], ev["approach"], ev["sensor"])
            by_sensor.setdefault(key, []).append(ev.time)
        for times in by_sensor.values():
            assert len(times) == 10  # one report per 6 minutes
            gaps = {b - a for a, b in zip(times, times[1:])}
            assert gaps == {360}

    def test_events_within_window(self, city):
        sim = self._sim(city, seed=1)
        events = list(scats_events(sim, 500, 2000))
        assert events
        assert all(500 <= ev.time < 2000 for ev in events)

    def test_empty_window(self, city):
        sim = self._sim(city)
        assert list(scats_events(sim, 100, 100)) == []

    def test_arrival_delays_bounded(self, city):
        sim = self._sim(city, max_arrival_delay=30, seed=2)
        for ev in scats_events(sim, 0, 1800):
            assert 0 <= ev.arrival - ev.time <= 30

    def test_payload_schema(self, city):
        sim = self._sim(city, seed=1)
        ev = next(iter(scats_events(sim, 0, 720)))
        assert set(ev.payload) == {
            "intersection", "approach", "sensor", "density", "flow",
        }
        assert ev["density"] >= 0
        assert ev["flow"] >= 0

    def test_readings_track_ground_truth(self, city):
        network, topology, node_of, gt = city
        sim = ScatsSensorSimulator(
            topology, node_of, gt, density_noise=0.5, flow_noise=5.0, seed=1
        )
        events = list(scats_events(sim, 0, 7200))
        errors = []
        for ev in events:
            node = node_of[ev["intersection"]]
            errors.append(abs(ev["density"] - gt.density(node, ev.time)))
        # Mediator aggregation + small noise + lane bias: mean error
        # stays within a few veh/km.
        assert sum(errors) / len(errors) < 8.0

    def test_faulty_sensors_stuck(self, city):
        sim = self._sim(city, fault_rate=0.3, seed=5)
        faulty = sim.faulty_sensors()
        assert faulty
        readings = {}
        for ev in scats_events(sim, 0, 3600):
            key = (ev["intersection"], ev["approach"], ev["sensor"])
            if key in faulty:
                readings.setdefault(key, set()).add(
                    (ev["density"], ev["flow"])
                )
        for values in readings.values():
            assert len(values) == 1  # stuck at one reading

    def test_deterministic(self, city):
        a = [e.payload for e in scats_events(self._sim(city, seed=9), 0, 1800)]
        b = [e.payload for e in scats_events(self._sim(city, seed=9), 0, 1800)]
        assert a == b

    def test_sensor_count(self, city):
        network, topology, node_of, gt = city
        sim = self._sim(city)
        assert sim.n_sensors == sum(
            len(topology.sensors_of(i)) for i in topology.ids()
        )


class TestBusFleetSimulator:
    def _sim(self, city, **kwargs):
        network, topology, node_of, gt = city
        lines = make_lines(network, 5, seed=4)
        defaults = dict(n_buses=20, seed=4)
        defaults.update(kwargs)
        return BusFleetSimulator(network, gt, lines, **defaults)

    def test_validation(self, city):
        network, topology, node_of, gt = city
        lines = make_lines(network, 3, seed=4)
        with pytest.raises(ValueError, match="line"):
            BusFleetSimulator(network, gt, [], n_buses=5)
        with pytest.raises(ValueError, match="bus"):
            BusFleetSimulator(network, gt, lines, n_buses=0)
        with pytest.raises(ValueError, match="fraction"):
            BusFleetSimulator(network, gt, lines, unreliable_fraction=2.0)
        with pytest.raises(ValueError, match="mode"):
            BusFleetSimulator(network, gt, lines, unreliable_mode="weird")
        with pytest.raises(ValueError, match="period"):
            BusFleetSimulator(network, gt, lines, emission_period=(30, 20))

    def test_emission_cadence(self, city):
        sim = self._sim(city)
        times = {}
        for move, _ in bus_events(sim, 0, 1800):
            times.setdefault(move["bus"], []).append(move.time)
        for bus_times in times.values():
            gaps = [b - a for a, b in zip(bus_times, bus_times[1:])]
            assert gaps, "every bus should emit repeatedly"
            assert all(20 <= g <= 30 for g in gaps)

    def test_move_and_gps_paired(self, city):
        sim = self._sim(city)
        for move, gps in bus_events(sim, 0, 600):
            assert gps.key == (move["bus"],)
            assert gps.time == move.time
            assert gps.arrival == move.arrival

    def test_gps_positions_on_route(self, city):
        network, *_ = city
        sim = self._sim(city)
        for move, gps in bus_events(sim, 0, 600):
            nearest = network.nearest_node(gps.value["lon"], gps.value["lat"])
            lon, lat = network.position(nearest)
            # Positions interpolate along edges; they stay within one
            # city block of some junction.
            assert distance_m(gps.value["lon"], gps.value["lat"], lon, lat) < 1500

    def test_delay_nonnegative(self, city):
        sim = self._sim(city)
        assert all(
            move["delay"] >= 0 for move, _ in bus_events(sim, 0, 1200)
        )

    def test_unreliable_buses_report_stuck_congestion(self, city):
        sim = self._sim(
            city, unreliable_fraction=0.5,
            unreliable_mode="stuck_congested",
        )
        unreliable = unreliable_buses(sim)
        assert unreliable
        for move, gps in bus_events(sim, 0, 1200):
            if move["bus"] in unreliable:
                assert gps.value["congestion"] == 1

    def test_inverted_buses_lie(self, city):
        network, topology, node_of, gt = city
        sim = self._sim(
            city, unreliable_fraction=1.0, unreliable_mode="inverted"
        )
        lies = 0
        for move, gps in bus_events(sim, 0, 600):
            node = network.nearest_node(gps.value["lon"], gps.value["lat"])
            # The bit should be the opposite of the truth at the
            # bus's own reference node (which may differ slightly from
            # nearest_node at edges, so only count clear cases).
            truth = gt.is_congested(node, move.time)
            if gps.value["congestion"] == (0 if truth else 1):
                lies += 1
        assert lies > 0

    def test_arrival_delays_mostly_small(self, city):
        sim = self._sim(city, late_fraction=0.1, max_arrival_delay=120)
        delays = [m.arrival - m.time for m, _ in bus_events(sim, 0, 1800)]
        assert all(0 <= d <= 120 for d in delays)
        small = sum(1 for d in delays if d <= 5)
        assert small / len(delays) > 0.8

    def test_deterministic(self, city):
        a = [(m.time, m["bus"], m["delay"]) for m, _ in bus_events(self._sim(city), 0, 900)]
        b = [(m.time, m["bus"], m["delay"]) for m, _ in bus_events(self._sim(city), 0, 900)]
        assert a == b

    def test_make_lines_routes_valid(self, city):
        network, *_ = city
        lines = make_lines(network, 4, seed=1, min_route_len=5)
        assert len(lines) == 4
        for line in lines:
            assert len(line.route) >= 5
            for a, b in zip(line.route, line.route[1:]):
                assert network.graph.has_edge(a, b)

    def test_make_lines_validation(self, city):
        network, *_ = city
        with pytest.raises(ValueError):
            make_lines(network, 0)
