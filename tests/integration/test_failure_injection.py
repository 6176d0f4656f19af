"""Integration: behaviour under injected component failures.

The paper motivates its design with exactly these failure classes —
"inaccurate measurements ... network local failures ... unexpected
interference of mediators" (Section 1) — so the reproduction should
degrade the same way: inertia carries fluent state over sensor
silence, stale sensors age out of the flow field, and an unreachable
crowd leaves disagreements unresolved rather than crashing the loop.
"""

import pytest

from repro.core import RTEC, Event
from repro.core.traffic import (
    Intersection,
    ScatsTopology,
    build_traffic_definitions,
    default_traffic_params,
)
from repro.dublin import DublinScenario, ScenarioConfig
from repro.system import SystemConfig, UrbanTrafficSystem, crowdloop
from repro.traffic_model import RollingFlowEstimator

LON, LAT = -6.26, 53.35
CONGESTED = dict(density=90.0, flow=300.0)


class TestSensorSilence:
    def test_congestion_persists_by_inertia_over_sensor_outage(self):
        """A sensor that reports congestion and then goes silent keeps
        its congestion fluent holding (the law of inertia) until a
        contradicting reading arrives."""
        topo = ScatsTopology(
            [Intersection("I1", LON, LAT, (("I1", "A", "S1"),))]
        )
        engine = RTEC(
            build_traffic_definitions(topo, adaptive=False),
            window=600,
            step=300,
            params=default_traffic_params(),
        )
        engine.feed([
            Event("traffic", 100, {
                "intersection": "I1", "approach": "A", "sensor": "S1",
                **CONGESTED,
            })
        ])
        # Three silent windows later the fluent still holds.
        last = None
        for snapshot in engine.run(1200):
            last = snapshot
        assert last.holds_at("scatsCongestion", ("I1", "A", "S1"), 1200)
        # Recovery reading terminates it.
        engine.feed([
            Event("traffic", 1300, {
                "intersection": "I1", "approach": "A", "sensor": "S1",
                "density": 15.0, "flow": 1000.0,
            })
        ])
        snapshot = engine.query(1500)
        assert not snapshot.holds_at(
            "scatsCongestion", ("I1", "A", "S1"), 1400
        )

    def test_stale_sensor_drops_out_of_flow_field(self):
        import networkx as nx

        estimator = RollingFlowEstimator(
            nx.path_graph(5), staleness_s=300, noise=1.0
        )
        estimator.observe(0, 200.0, time=0)
        estimator.observe(4, 900.0, time=1000)
        # At t=1100 the reading from t=0 is stale: only node 4 anchors.
        observations = estimator.active_observations(1100)
        assert set(observations) == {4}
        estimates = estimator.estimate(1100)
        # With a single anchor the field collapses towards it.
        assert estimates[0] == pytest.approx(estimates[4], rel=0.3)


class TestCrowdOutage:
    @pytest.fixture(scope="class")
    def scenario(self):
        return DublinScenario(
            ScenarioConfig(
                seed=37, rows=10, cols=10, n_intersections=25,
                n_buses=40, n_lines=6, unreliable_fraction=0.25,
                n_incidents=3, incident_window=(0, 1200),
            )
        )

    def test_all_devices_offline_leaves_disagreements_unresolved(
        self, scenario
    ):
        system = UrbanTrafficSystem(
            scenario,
            SystemConfig(adaptive=True, crowd_enabled=True,
                         n_participants=20, seed=37),
        )
        # Simulate a push-service outage: every device goes dark.
        for participant in system.crowd.engine.online_participants():
            system.crowd.engine.set_online(
                participant.participant_id, False
            )
        report = system.run(0, 1200)
        assert report.crowd_resolutions == 0
        if report.console.counts().get("source disagreement"):
            assert report.crowd_unresolved > 0

    def test_partial_outage_still_resolves(self, scenario, monkeypatch):
        monkeypatch.setattr(crowdloop, "PARTICIPANT_RADIUS_M", 5000.0)
        system = UrbanTrafficSystem(
            scenario,
            SystemConfig(adaptive=True, crowd_enabled=True,
                         n_participants=40, seed=37),
        )
        online = system.crowd.engine.online_participants()
        for participant in online[: len(online) // 2]:
            system.crowd.engine.set_online(
                participant.participant_id, False
            )
        report = system.run(0, 1200)
        # Half the fleet still suffices to resolve something (if any
        # disagreement occurred at all).
        if report.console.counts().get("source disagreement"):
            assert report.crowd_resolutions > 0


class TestMediatorDelays:
    def test_heavily_delayed_stream_recognised_with_wide_window(self):
        scenario = DublinScenario(
            ScenarioConfig(
                seed=41, rows=10, cols=10, n_intersections=20,
                n_buses=30, n_lines=5,
            )
        )
        data = scenario.generate(0, 900)
        # Inject mediator lag: every SDE arrives 200 s late.
        delayed = [
            Event(e.type, e.time, dict(e.payload), arrival=e.arrival + 200)
            for e in data.events
        ]
        narrow = RTEC(
            build_traffic_definitions(scenario.topology),
            window=300, step=300, params=default_traffic_params(),
        )
        wide = RTEC(
            build_traffic_definitions(scenario.topology),
            window=900, step=300, params=default_traffic_params(),
        )
        narrow.feed(delayed, data.facts)
        wide.feed(delayed, data.facts)
        narrow_events = sum(s.n_events for s in narrow.run(1200))
        wide_events = sum(s.n_events for s in wide.run(1200))
        # The wide window sees (multiply counts) the delayed SDEs; the
        # narrow window misses a chunk of them entirely.
        assert wide_events > narrow_events
