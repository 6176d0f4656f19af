"""Tests for the latency model, selection policies and query engine."""

import pytest

from repro.crowd import (
    AllParticipants,
    CrowdQuery,
    DisagreementTask,
    LatencyModel,
    LocationPolicy,
    Participant,
    QueryExecutionEngine,
    StepLatency,
    TRIGGER_RANGE_MS,
)

LON, LAT = -6.26, 53.35
M = 1 / 111_195


def _task(lon=LON, lat=LAT, true_label="congestion"):
    return DisagreementTask(1, lon=lon, lat=lat, true_label=true_label)


class TestLatencyModel:
    def test_trigger_in_range(self):
        model = LatencyModel(seed=1)
        for _ in range(100):
            t = model.trigger_ms()
            assert TRIGGER_RANGE_MS[0] <= t <= TRIGGER_RANGE_MS[1]

    @pytest.mark.parametrize(
        "connection,expected", [("2g", 467.0), ("3g", 169.0), ("wifi", 184.0)]
    )
    def test_push_calibration(self, connection, expected):
        model = LatencyModel(seed=2)
        mean = sum(model.push_ms(connection) for _ in range(300)) / 300
        assert mean == pytest.approx(expected, rel=0.05)

    @pytest.mark.parametrize(
        "connection,expected", [("2g", 423.0), ("3g", 171.0), ("wifi", 182.0)]
    )
    def test_communication_calibration(self, connection, expected):
        model = LatencyModel(seed=3)
        mean = sum(model.communication_ms(connection) for _ in range(300)) / 300
        assert mean == pytest.approx(expected, rel=0.05)

    def test_unknown_connection(self):
        model = LatencyModel()
        with pytest.raises(ValueError, match="unknown connection"):
            model.push_ms("5g")

    def test_case_insensitive(self):
        model = LatencyModel()
        assert model.push_ms("WiFi") > 0

    def test_deterministic_given_seed(self):
        a = LatencyModel(seed=9)
        b = LatencyModel(seed=9)
        assert [a.push_ms("3g") for _ in range(5)] == [
            b.push_ms("3g") for _ in range(5)
        ]

    def test_expected_engine_latency_under_one_second(self):
        # The paper: even on 2G the engine-side end-to-end latency is
        # under a second.
        model = LatencyModel()
        for connection in ("2g", "3g", "wifi"):
            assert model.expected_engine_ms(connection) < 1000.0

    def test_custom_calibration(self):
        model = LatencyModel(push={"lan": StepLatency(5.0, 0.0)},
                             communication={"lan": StepLatency(5.0, 0.0)})
        assert model.push_ms("lan") == 5.0

    def test_think_time_positive(self):
        model = LatencyModel(seed=4)
        assert all(model.think_ms(20.0) >= 500.0 for _ in range(50))


class TestSelectionPolicies:
    def _participants(self):
        return [
            Participant("near", 0.1, lon=LON, lat=LAT + 100 * M),
            Participant("far", 0.05, lon=LON + 0.1, lat=LAT),
            Participant("sloppy", 0.6, lon=LON, lat=LAT),
        ]

    def test_all(self):
        ps = self._participants()
        assert AllParticipants().select(_task(), ps) == ps

    def test_location(self):
        ps = self._participants()
        chosen = LocationPolicy(radius_m=500).select(_task(), ps)
        assert {p.participant_id for p in chosen} == {"near", "sloppy"}

    def test_location_validates_radius(self):
        with pytest.raises(ValueError):
            LocationPolicy(radius_m=0)

class TestQueryExecutionEngine:
    def _engine(self, participants=None, **kwargs):
        engine = QueryExecutionEngine(seed=5, **kwargs)
        for p in participants or [
            Participant("p1", 0.05, lon=LON, lat=LAT, connection="wifi"),
            Participant("p2", 0.1, lon=LON, lat=LAT, connection="3g"),
            Participant("p3", 0.2, lon=LON, lat=LAT, connection="2g"),
        ]:
            engine.register(p)
        return engine

    def test_queries_all_online_participants(self):
        engine = self._engine()
        result = engine.execute(CrowdQuery(task=_task()))
        assert set(result.selected) == {"p1", "p2", "p3"}
        assert sum(e.answered for e in result.executions) == 3
        assert len(result.answer_set.answers) == 3

    def test_offline_devices_skipped(self):
        engine = self._engine()
        engine.set_online("p2", False)
        result = engine.execute(CrowdQuery(task=_task()))
        assert set(result.selected) == {"p1", "p3"}

    def test_set_online_unknown(self):
        engine = self._engine()
        with pytest.raises(KeyError):
            engine.set_online("ghost", True)

    def test_latency_breakdown_present(self):
        engine = self._engine()
        result = engine.execute(CrowdQuery(task=_task()))
        for execution in result.executions:
            assert execution.trigger_ms > 0
            assert execution.push_ms > 0
            assert execution.communication_ms > 0
            assert execution.engine_ms < 1500
            assert execution.total_ms > execution.engine_ms

    def test_reduce_phase_counts_votes(self):
        engine = self._engine(
            participants=[
                Participant(f"p{i}", 0.0, connection="wifi") for i in range(5)
            ]
        )
        result = engine.execute(CrowdQuery(task=_task()))
        assert result.vote_counts == {"congestion": 5}
        assert result.reduce_worker in result.selected

    def test_reply_window_drops_slow_workers(self):
        engine = self._engine()
        result = engine.execute(
            CrowdQuery(task=_task(), reply_window_ms=1.0)
        )
        assert not any(e.answered for e in result.executions)
        assert result.reduce_worker is None
        assert not result.answer_set.answers

    def test_deadline_admission(self):
        # 2G expected engine latency (~936 ms) exceeds an 800 ms
        # deadline; 3G and WiFi fit.
        engine = self._engine()
        result = engine.execute(
            CrowdQuery(task=_task(), deadline_ms=800.0)
        )
        assert set(result.selected) == {"p1", "p2"}

    def test_historical_latency_updates_estimates(self):
        engine = self._engine()
        p1 = engine.online_participants()[0]
        before = engine.estimated_latency_ms(p1)
        engine.execute(CrowdQuery(task=_task()))
        after = engine.estimated_latency_ms(p1)
        # After one execution the estimate is the observed mean, which
        # almost surely differs from the model expectation.
        assert before != after

    def test_policy_applied(self):
        engine = self._engine(policy=LocationPolicy(radius_m=500))
        engine.register(Participant("far", 0.1, lon=LON + 1.0, lat=LAT))
        result = engine.execute(CrowdQuery(task=_task()))
        assert "far" not in result.selected

    def test_deterministic_given_seed(self):
        r1 = self._engine().execute(CrowdQuery(task=_task()))
        r2 = self._engine().execute(CrowdQuery(task=_task()))
        assert r1.answer_set.answers == r2.answer_set.answers
        assert [e.push_ms for e in r1.executions] == [
            e.push_ms for e in r2.executions
        ]

