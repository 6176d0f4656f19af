"""Unit tests for the cross-process shard supervisor."""

import pytest

from repro.obs import Registry
from repro.shard import ShardSupervisor
from repro.system.degradation import DegradationManager


class TestRestartBudget:
    def test_allows_restarts_up_to_budget(self):
        sup = ShardSupervisor(max_restarts=3)
        for death in range(1, 4):
            assert sup.record_death("north", step=death, q=death * 300, reason="killed")
        assert not sup.is_failed("north")

    def test_death_past_budget_latches_breaker_open(self):
        sup = ShardSupervisor(max_restarts=1)
        assert sup.record_death("north", 1, 300, "killed")
        assert not sup.record_death("north", 2, 600, "killed again")
        assert sup.is_failed("north")
        assert sup.failed_regions() == ["north"]
        failed = [e for e in sup.events if e["event"] == "failed"]
        assert failed == [
            {
                "event": "failed",
                "region": "north",
                "step": 2,
                "q": 600,
                "reason": "killed again",
                "deaths": 2,
            }
        ]

    def test_zero_budget_fails_on_first_death(self):
        sup = ShardSupervisor(max_restarts=0)
        assert not sup.record_death("north", 0, 0, "killed")
        assert sup.is_failed("north")

    def test_fail_latches_at_once_whatever_budget_is_left(self):
        degradation = DegradationManager()
        sup = ShardSupervisor(max_restarts=3, degradation=degradation)
        assert sup.record_death("north", 5, 1500, "killed")
        sup.record_restart("north", 5, 1500)
        sup.fail("north", 5, 1500, "journal gap: shard at step 3, ...")
        assert sup.is_failed("north")
        assert sup.events[-1] == {
            "event": "failed",
            "region": "north",
            "step": 5,
            "q": 1500,
            "reason": "journal gap: shard at step 3, ...",
            "deaths": 1,
        }
        assert degradation.intervals["shard:north"] == [(1500, None)]

    def test_budgets_are_per_region(self):
        sup = ShardSupervisor(max_restarts=1)
        sup.record_death("north", 1, 300, "x")
        sup.record_death("north", 2, 600, "x")
        assert sup.record_death("south", 1, 300, "x")
        assert sup.failed_regions() == ["north"]

    def test_open_breaker_never_resets_within_a_run(self):
        sup = ShardSupervisor(max_restarts=0)
        sup.record_death("north", 0, 0, "x")
        # Even an absurdly late event-time query leaves it open.
        assert sup.breaker_for("north").is_open


class TestBackoff:
    def test_exponential_schedule_doubles_per_death(self):
        sup = ShardSupervisor(backoff_base_s=0.05, backoff_cap_s=10.0)
        observed = []
        for _ in range(4):
            sup.record_death("north", 0, 0, "x")
            observed.append(sup.backoff_s("north"))
        assert observed == [0.05, 0.1, 0.2, 0.4]

    def test_backoff_is_capped(self):
        sup = ShardSupervisor(backoff_base_s=1.0, backoff_cap_s=2.0)
        for _ in range(6):
            sup.record_death("north", 0, 0, "x")
        assert sup.backoff_s("north") == 2.0


class TestWiring:
    def test_failure_forces_degradation_outage(self):
        degradation = DegradationManager()
        sup = ShardSupervisor(max_restarts=0, degradation=degradation)
        sup.record_death("north", step=4, q=1200, reason="killed")
        assert degradation.is_degraded("shard:north")
        assert degradation.intervals["shard:north"] == [(1200, None)]
        # Forced outages never recover from arrival accounting.
        degradation.observe(1500, {"shard:north": 99})
        assert degradation.is_degraded("shard:north")

    def test_metrics_namespace(self):
        metrics = Registry()
        sup = ShardSupervisor(max_restarts=1, metrics=metrics)
        sup.record_death("north", 1, 300, "x")
        sup.record_restart("north", 1, 300)
        sup.record_death("north", 2, 600, "x")
        counters = metrics.counters()
        assert counters["shard.deaths"] == 2
        assert counters["shard.north.deaths"] == 2
        assert counters["shard.restarts"] == 1
        assert counters["shard.north.restarts"] == 1
        assert counters["shard.failed"] == 1
        assert metrics.gauge("shard.breaker.north.state").value == 1.0

    def test_restart_event_carries_attempt_number(self):
        sup = ShardSupervisor(max_restarts=5)
        for attempt in (1, 2):
            sup.record_death("north", attempt, attempt * 300, "x")
            sup.record_restart("north", attempt, attempt * 300)
        attempts = [e["attempt"] for e in sup.events]
        assert attempts == [1, 2]

    def test_heartbeat_age_gauge_and_timing(self):
        metrics = Registry()
        sup = ShardSupervisor(metrics=metrics)
        sup.observe_heartbeat_age("north", 0.02)
        sup.observe_heartbeat_age("north", 0.04)
        assert metrics.gauge("shard.north.heartbeat_age_s").value == 0.04
        assert metrics.timing("shard.heartbeat_age_s").count == 2

    def test_breaker_state_gauges_cover_all_regions(self):
        metrics = Registry()
        sup = ShardSupervisor(max_restarts=0, metrics=metrics)
        sup.breaker_for("south")
        sup.record_death("north", 0, 0, "x")
        sup.record_breaker_states()
        assert metrics.gauge("shard.breaker.north.state").value == 1.0
        assert metrics.gauge("shard.breaker.south.state").value == 0.0


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_restarts=-1),
            dict(backoff_base_s=-0.1),
            dict(backoff_cap_s=-1.0),
            dict(liveness_timeout_s=0.0),
        ],
    )
    def test_rejects_invalid_configuration(self, kwargs):
        with pytest.raises(ValueError):
            ShardSupervisor(**kwargs)
