"""Tests for the crowd extensions: priors, rewards, sensor probes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crowd import (
    CONGESTION_LABEL,
    TRAFFIC_LABELS,
    OnlineEM,
    Participant,
    ProbeResult,
    QueryExecutionEngine,
    RewardLedger,
    RewardPolicy,
    SensorProbe,
    bus_report_prior,
    execute_probe,
    uniform_prior,
)

LON, LAT = -6.26, 53.35


class TestBusReportPrior:
    def test_no_reports_uniform(self):
        assert bus_report_prior(0, 0) == uniform_prior(TRAFFIC_LABELS)

    def test_zero_strength_uniform(self):
        assert bus_report_prior(3, 4, strength=0.0) == uniform_prior(
            TRAFFIC_LABELS
        )

    def test_paper_example_ordering(self):
        # "if only 1 out of 4 buses ... indicates a congestion, the
        # prior could assign a lower prior probability to the
        # congestion than if 3 out of 4 buses reported a congestion."
        low = bus_report_prior(1, 4)
        high = bus_report_prior(3, 4)
        assert low[CONGESTION_LABEL] < high[CONGESTION_LABEL]

    def test_unanimous_congestion_beats_uniform(self):
        prior = bus_report_prior(4, 4)
        assert prior[CONGESTION_LABEL] > 1.0 / len(TRAFFIC_LABELS)

    def test_smoothing_avoids_degenerate_prior(self):
        prior = bus_report_prior(1, 1, strength=1.0)
        assert 0.0 < prior[CONGESTION_LABEL] < 1.0
        assert all(v > 0 for v in prior.values())

    def test_validation(self):
        with pytest.raises(ValueError, match="exceed"):
            bus_report_prior(5, 4)
        with pytest.raises(ValueError, match="non-negative"):
            bus_report_prior(-1, 4)
        with pytest.raises(ValueError, match="strength"):
            bus_report_prior(1, 4, strength=2.0)
        with pytest.raises(ValueError, match="pseudo"):
            bus_report_prior(1, 4, pseudo_count=0.0)
        with pytest.raises(ValueError, match="congestion label"):
            bus_report_prior(1, 4, labels=("a", "b"))

    @given(st.integers(0, 20), st.integers(0, 20),
           st.floats(0.0, 1.0))
    def test_always_a_distribution(self, positive, extra, strength):
        total = positive + extra
        prior = bus_report_prior(positive, total, strength=strength)
        assert sum(prior.values()) == pytest.approx(1.0)
        assert all(v >= 0 for v in prior.values())
        assert set(prior) == set(TRAFFIC_LABELS)


class TestRewards:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RewardPolicy(base_per_answer=-1)
        with pytest.raises(ValueError):
            RewardPolicy(quality_bonus=-1)
        with pytest.raises(ValueError):
            RewardPolicy(quality_cutoff=0.0)

    def test_quality_score(self):
        policy = RewardPolicy(quality_cutoff=0.75)
        assert policy.quality(0.0) == 1.0
        assert policy.quality(0.75) == 0.0
        assert policy.quality(0.9) == 0.0  # clamped
        assert 0.0 < policy.quality(0.3) < 1.0

    def test_better_participants_earn_more(self):
        policy = RewardPolicy()
        good = policy.reward(10, 0.05)
        bad = policy.reward(10, 0.7)
        assert good > bad

    def test_reward_proportional_to_answers(self):
        policy = RewardPolicy()
        assert policy.reward(20, 0.1) == pytest.approx(
            2 * policy.reward(10, 0.1)
        )

    def test_negative_answers_rejected(self):
        with pytest.raises(ValueError):
            RewardPolicy().reward(-1, 0.1)

    def test_ledger_settlement(self):
        ledger = RewardLedger()
        ledger.record_answers(["a", "b"])
        ledger.record_answers(["a"])
        em = OnlineEM()
        em.error_probabilities = {"a": 0.05, "b": 0.6}
        rewards = ledger.settle(em)
        assert set(rewards) == {"a", "b"}
        assert rewards["a"] > rewards["b"]


class TestSensorProbes:
    def _engine(self, positions):
        engine = QueryExecutionEngine(seed=4)
        for pid, (lon, lat, connection) in positions.items():
            engine.register(
                Participant(pid, 0.1, lon=lon, lat=lat,
                            connection=connection)
            )
        return engine

    def test_probe_validation(self):
        with pytest.raises(ValueError, match="reducer"):
            SensorProbe("speed", lambda p: 0.0, reducer="max")
        with pytest.raises(ValueError, match="radius"):
            SensorProbe("speed", lambda p: 0.0, density_radius_m=0)

    def test_mean_reducer(self):
        engine = self._engine({
            "a": (LON, LAT, "wifi"),
            "b": (LON, LAT, "3g"),
        })
        values = {"a": 30.0, "b": 50.0}
        probe = SensorProbe(
            "speed_kmh", lambda p: values[p.participant_id]
        )
        result = execute_probe(engine, probe)
        assert result.n_readings == 2
        assert result.aggregate == pytest.approx(40.0)

    def test_median_reducer(self):
        engine = self._engine({
            "a": (LON, LAT, "wifi"),
            "b": (LON, LAT, "wifi"),
            "c": (LON, LAT, "wifi"),
        })
        values = {"a": 10.0, "b": 20.0, "c": 90.0}
        probe = SensorProbe(
            "humidity", lambda p: values[p.participant_id],
            reducer="median",
        )
        assert execute_probe(engine, probe).aggregate == 20.0

    def test_density_weighted_reducer(self):
        # Three phones in one spot reading 0, one isolated phone
        # reading 100: density weighting pulls the aggregate towards
        # the isolated reading (unweighted mean would be 25).
        engine = self._engine({
            "a": (LON, LAT, "wifi"),
            "b": (LON, LAT, "wifi"),
            "c": (LON, LAT, "wifi"),
            "far": (LON + 0.05, LAT, "wifi"),
        })
        values = {"a": 0.0, "b": 0.0, "c": 0.0, "far": 100.0}
        probe = SensorProbe(
            "speed", lambda p: values[p.participant_id],
            reducer="density_weighted",
        )
        result = execute_probe(engine, probe)
        assert result.aggregate == pytest.approx(50.0)

    def test_reply_window_filters_slow_devices(self):
        engine = self._engine({
            "slow": (LON, LAT, "2g"),
            "fast": (LON, LAT, "wifi"),
        })
        probe = SensorProbe(
            "speed", lambda p: 1.0, reply_window_ms=700.0
        )
        result = execute_probe(engine, probe)
        ids = {r.participant_id for r in result.readings}
        assert ids == {"fast"}

    def test_empty_engine(self):
        engine = QueryExecutionEngine(seed=1)
        result = execute_probe(engine, SensorProbe("x", lambda p: 1.0))
        assert result.n_readings == 0
        assert result.aggregate is None
