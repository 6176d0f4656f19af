"""The crowdsourcing leg on its own: one disagreement at a time, built
from what it reads — no ``UrbanTrafficSystem``, no engine, no stream."""

import numpy as np
import pytest

from repro.core.events import Occurrence
from repro.core.rtec import RecognitionSnapshot
from repro.crowd import Participant, bus_report_prior
from repro.dublin import DublinScenario, ScenarioConfig
from repro.obs import Registry
from repro.system import CrowdLoop, OperatorConsole, SystemConfig
from repro.traffic_model import CONGESTED_FLOW, FREE_FLOW, RollingFlowEstimator


@pytest.fixture(scope="module")
def scenario():
    return DublinScenario(
        ScenarioConfig(
            seed=7, rows=10, cols=10, n_intersections=25, n_buses=40,
            n_lines=6, n_incidents=4, incident_window=(0, 1200),
        )
    )


def hand_made_loop(scenario, **config):
    """A crowd loop with four reliable participants standing at the
    first intersection and nobody scattered anywhere else."""
    loop = CrowdLoop(
        scenario,
        SystemConfig(n_participants=0, seed=7, **config),
        OperatorConsole(),
        RollingFlowEstimator(scenario.network.graph),
        Registry(),
    )
    int_id = scenario.topology.ids()[0]
    lon, lat = scenario.topology.location(int_id)
    for i in range(4):
        loop.crowd.engine.register(
            Participant(f"p{i}", 0.05, lon=lon, lat=lat)
        )
    return loop, int_id


def _snapshot(q, int_id, buses):
    """A query result whose window holds one ``disagree`` per bus."""
    return RecognitionSnapshot(
        query_time=q,
        window_start=q - 600,
        occurrences={
            "disagree": [
                Occurrence(
                    "disagree", (bus, int_id), q - 10,
                    {"bus": bus, "intersection": int_id},
                )
                for bus in buses
            ]
        },
    )


def _counts(loop):
    return loop.resolved, loop.unresolved, loop.suppressed


class TestOneDisagreement:
    def test_resolution_feeds_console_flow_field_and_rewards(self, scenario):
        loop, int_id = hand_made_loop(scenario)
        event = loop.resolve("north", 600, int_id, 450, None)
        assert event is not None and event.type == "crowd"
        assert event["intersection"] == int_id
        assert event.time > 600
        assert loop.crowd.outcomes[0].task.time == 600
        assert _counts(loop) == (1, 0, 0)
        assert [(a.time, a.kind, a.region) for a in loop.console.alerts] == [
            (450, "source disagreement", "north"),
            (event.time, "crowd resolution", "north"),
        ]
        node = scenario.node_of[int_id]
        expected = (
            CONGESTED_FLOW if event["value"] == "positive" else FREE_FLOW
        )
        assert loop.flow_estimator.active_observations(event.time)[node] == (
            expected
        )
        assert set(loop.settle_rewards()) == {f"p{i}" for i in range(4)}
        counters = loop.metrics.counters()
        assert counters["crowd.disagreements"] == 1
        assert counters["crowd.resolved"] == 1

    def test_nobody_near_leaves_it_unresolved(self, scenario):
        loop, _ = hand_made_loop(scenario)
        far = max(
            scenario.topology.ids(),
            key=lambda i: scenario.topology.location(i),
        )
        assert loop.resolve(None, 600, far, 450, None) is None
        assert _counts(loop) == (0, 1, 0)

    def test_crowd_off_counts_unresolved(self, scenario):
        loop = CrowdLoop(
            scenario, SystemConfig(crowd_enabled=False), OperatorConsole(),
            RollingFlowEstimator(scenario.network.graph), Registry(),
        )
        assert loop.crowd is None and loop.reward_ledger is None
        int_id = scenario.topology.ids()[0]
        assert loop.resolve(None, 600, int_id, 450, None) is None
        assert _counts(loop) == (0, 1, 0)
        assert len(loop.console.alerts) == 1
        assert loop.settle_rewards() == {}

    def test_cooldown_counts_from_the_query_time(self, scenario):
        loop, int_id = hand_made_loop(scenario, crowd_cooldown_s=600)
        assert loop.resolve(None, 600, int_id, 450, None) is not None
        # Within the cooldown: announced to the operators, not asked.
        assert loop.resolve(None, 900, int_id, 880, None) is None
        assert _counts(loop) == (1, 0, 1)
        assert len(loop.crowd.outcomes) == 1
        assert len(loop.console.of_kind("source disagreement")) == 2
        # The cooldown runs from the last *query* (600), not from the
        # suppressed attempt.
        assert loop.resolve(None, 1200, int_id, 1190, None) is not None
        assert _counts(loop) == (2, 0, 1)

    def test_min_support_reads_the_windows_disagreeing_buses(self, scenario):
        loop, int_id = hand_made_loop(scenario, crowd_min_support=2)
        other = scenario.topology.ids()[1]
        lone = _snapshot(600, int_id, ["B1", "B1"])
        elsewhere = _snapshot(600, other, ["B1", "B2"])
        for snapshot in (lone, elsewhere):
            assert loop.resolve(None, 600, int_id, 450, snapshot) is None
        assert _counts(loop) == (0, 0, 2)
        assert not loop.crowd.outcomes
        # A suppressed disagreement starts no cooldown.
        two = _snapshot(600, int_id, ["B1", "B2"])
        assert loop.resolve(None, 600, int_id, 450, two) is not None
        assert _counts(loop) == (1, 0, 2)

    def test_min_support_is_a_self_adaptive_policy(self, scenario):
        loop, int_id = hand_made_loop(scenario, crowd_min_support=2, adaptive=False)
        assert loop.resolve(None, 600, int_id, 450, None) is not None

    def test_degraded_feed_suppresses_silently(self, scenario):
        loop, int_id = hand_made_loop(scenario)
        degraded = frozenset({"scats"})
        assert loop.resolve(None, 600, int_id, 450, None, degraded) is None
        assert _counts(loop) == (0, 0, 1)
        assert not loop.console.alerts
        counters = loop.metrics.counters()
        assert counters["system.degraded.crowd_suppressed"] == 1
        assert "crowd.disagreements" not in counters
        # ... and starts no cooldown either.
        assert loop.resolve(None, 600, int_id, 450, None) is not None


class TestPrior:
    def test_query_carries_the_bus_report_prior_at_the_query_time(
        self, scenario
    ):
        loop, int_id = hand_made_loop(scenario)
        times = np.array([100, 350, 500, 590, 610])
        bits = np.array([1, 1, 0, 0, 1])
        loop._bus_reports = {int_id: (times, bits)}
        # Window (600 - prior_window, 600] = all but the report at 610.
        assert loop.prior(int_id, 600) == bus_report_prior(2, 4)
        assert loop.prior(int_id, 50) is None
        assert loop.prior("no-such-intersection", 600) is None
        loop.resolve(None, 600, int_id, 450, None)
        assert loop.crowd.outcomes[0].task.prior == bus_report_prior(2, 4)

    def test_priors_off(self, scenario):
        loop, int_id = hand_made_loop(scenario, ce_priors=False)
        gps = scenario.generate(0, 300).columns.fact_block("gps")
        loop.index_bus_reports(gps)
        assert loop._bus_reports == {}
        loop._bus_reports = {int_id: (np.array([500]), np.array([1]))}
        assert loop.prior(int_id, 600) is None
        loop.resolve(None, 600, int_id, 450, None)
        prior = loop.crowd.outcomes[0].task.prior
        assert len(set(prior.values())) == 1  # uniform

    def test_index_is_built_from_a_gps_block(self, scenario):
        loop, _ = hand_made_loop(scenario)
        loop.index_bus_reports(None)
        assert loop._bus_reports == {}
        data = scenario.generate(0, 600)
        loop.index_bus_reports(data.columns.fact_block("gps"))
        assert loop._bus_reports
        for times, bits in loop._bus_reports.values():
            assert len(times) == len(bits)
            assert (np.diff(times) >= 0).all()
