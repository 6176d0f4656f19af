"""Tests for feed-outage detection and degraded-mode recognition."""

import pickle

import pytest

from repro.dublin import DublinScenario, ScenarioConfig
from repro.obs import Registry
from repro.system import (
    DegradationManager,
    SystemConfig,
    UrbanTrafficSystem,
    describe_timeline,
)


class TestDegradationManager:
    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            DegradationManager(threshold=0)

    def test_below_threshold_silence_is_tolerated(self):
        manager = DegradationManager(threshold=2)
        assert manager.observe(300, {"scats": 0, "bus": 5}) == frozenset()
        assert "scats" not in manager.degraded_feeds

    def test_consecutive_silence_trips_the_breaker(self):
        manager = DegradationManager(threshold=2)
        manager.observe(300, {"scats": 0, "bus": 5})
        degraded = manager.observe(600, {"scats": 0, "bus": 5})
        assert degraded == frozenset({"scats"})
        assert manager.intervals["scats"] == [(600, None)]

    def test_intermittent_arrivals_reset_the_streak(self):
        manager = DegradationManager(threshold=2)
        manager.observe(300, {"scats": 0, "bus": 1})
        manager.observe(600, {"scats": 3, "bus": 1})  # resets
        manager.observe(900, {"scats": 0, "bus": 1})
        assert manager.degraded_feeds == frozenset()

    def test_recovery_closes_the_interval(self):
        manager = DegradationManager(threshold=1)
        manager.observe(300, {"scats": 0, "bus": 1})
        assert "scats" in manager.degraded_feeds
        manager.observe(600, {"scats": 4, "bus": 1})
        assert "scats" not in manager.degraded_feeds
        assert manager.intervals["scats"] == [(300, 600)]

    def test_missing_feed_counts_as_silent(self):
        manager = DegradationManager(threshold=1)
        assert manager.observe(300, {"bus": 1}) == frozenset({"scats"})

    def test_finish_keeps_only_feeds_with_outages(self):
        manager = DegradationManager(threshold=1)
        manager.observe(300, {"scats": 0, "bus": 1})
        assert set(manager.finish()) == {"scats"}
        assert manager.finish()["scats"] == [(300, None)]

    def test_metrics_series(self):
        metrics = Registry()
        manager = DegradationManager(threshold=1, metrics=metrics)
        manager.observe(300, {"scats": 0, "bus": 1})
        manager.observe(600, {"scats": 2, "bus": 1})
        counters = metrics.counters()
        assert counters["system.feed.scats.silent_steps"] == 1
        assert counters["system.feed.scats.outages"] == 1
        assert counters["system.feed.scats.recoveries"] == 1
        assert metrics.gauges()["system.feed.scats.degraded"] == 0.0

    def test_describe_timeline(self):
        lines = describe_timeline(
            {"scats": [(300, 900), (1200, None)], "bus": [(600, 900)]}
        )
        assert lines == [
            "feed 'bus' degraded over [600, 900]",
            "feed 'scats' degraded over [300, 900]",
            "feed 'scats' degraded over [1200, end of run]",
        ]


@pytest.fixture(scope="module")
def scenario():
    return DublinScenario(
        ScenarioConfig(
            seed=2,
            rows=12,
            cols=12,
            n_intersections=40,
            n_buses=50,
            n_lines=8,
            unreliable_fraction=0.15,
            n_incidents=6,
            incident_window=(0, 1800),
        )
    )


def _run(scenario, **overrides):
    config = dict(
        window=600, step=300, n_participants=20, seed=2,
    )
    config.update(overrides)
    system = UrbanTrafficSystem(scenario, SystemConfig(**config))
    return system, system.run(0, 1800)


@pytest.mark.chaos
class TestBlackoutEndToEnd:
    @pytest.fixture(scope="class")
    def runs(self, scenario):
        _, healthy = _run(scenario)
        system, dark = _run(scenario, fault_profile="blackout_scats")
        return system, healthy, dark

    def test_scats_outage_recorded(self, runs):
        _, _, dark = runs
        assert "scats" in dark.degraded
        (start, end) = dark.degraded["scats"][0]
        assert end is None  # the blackout never lifts
        assert any("scats" in line for line in dark.degraded_timeline())

    def test_healthy_run_reports_no_outage(self, runs):
        _, healthy, _ = runs
        assert healthy.degraded == {}
        assert healthy.degraded_timeline() == []

    def test_bus_derived_alerts_survive_the_blackout(self, runs):
        _, _, dark = runs
        kinds = dark.console.counts()
        assert kinds.get("bus congestion", 0) > 0

    def test_scats_derived_alerts_are_suppressed(self, runs):
        system, _, dark = runs
        kinds = dark.console.counts()
        assert kinds.get("scats congestion", 0) == 0
        suppressed = system.metrics.counters().get(
            "system.degraded.alerts_suppressed", 0
        )
        assert suppressed > 0

    def test_crowd_queries_are_suppressed(self, runs):
        # ``crowd_suppressed`` also counts cooldown suppressions, so
        # the outage-specific share is the dedicated counter.
        system, healthy, dark = runs
        by_outage = system.metrics.counters()[
            "system.degraded.crowd_suppressed"
        ]
        assert by_outage > 0
        assert dark.crowd_suppressed >= by_outage


class TestDegradationStateDict:
    """Satellite: open-interval handling + breaker state round-trips."""

    def test_finish_preserves_open_interval_end_none(self):
        manager = DegradationManager(threshold=1)
        manager.observe(300, {"scats": 0, "bus": 1})
        manager.observe(600, {"scats": 0, "bus": 0})
        timeline = manager.finish()
        assert timeline["scats"] == [(300, None)]
        assert timeline["bus"] == [(600, None)]
        assert describe_timeline(timeline) == [
            "feed 'bus' degraded over [600, end of run]",
            "feed 'scats' degraded over [300, end of run]",
        ]

    def test_state_dict_round_trip_with_open_interval(self):
        manager = DegradationManager(threshold=1)
        manager.observe(300, {"scats": 0, "bus": 1})
        manager.observe(600, {"scats": 4, "bus": 1})
        manager.observe(900, {"scats": 0, "bus": 1})  # re-trips: open

        revived = pickle.loads(pickle.dumps(manager))
        assert revived.degraded_feeds == frozenset({"scats"})
        assert revived.intervals["scats"] == [(300, 600), (900, None)]
        # The revived breaker continues the same timeline: the next
        # arrival closes the open interval at its query time.
        revived.observe(1200, {"scats": 2, "bus": 1})
        assert revived.intervals["scats"] == [(300, 600), (900, 1200)]
        assert "scats" not in revived.degraded_feeds

    def test_state_dict_round_trip_preserves_silent_streak(self):
        manager = DegradationManager(threshold=3)
        manager.observe(300, {"scats": 0, "bus": 1})
        manager.observe(600, {"scats": 0, "bus": 1})
        assert "scats" not in manager.degraded_feeds

        revived = pickle.loads(pickle.dumps(manager))
        # One more silent step after restore completes the streak —
        # exactly as it would have without the restart.
        degraded = revived.observe(900, {"scats": 0, "bus": 1})
        assert degraded == frozenset({"scats"})
        assert revived.intervals["scats"] == [(900, None)]
