"""Tests for the pipeline extensions: priors, rewards, measured flows,
structured intersections and SCATS reliability in the full loop."""

import numpy as np
import pytest

from repro.crowd import bus_report_prior
from repro.dublin import DublinScenario, ScenarioConfig
from repro.system import SystemConfig, UrbanTrafficSystem
from repro.system.crowdloop import PRIOR_WINDOW_S


@pytest.fixture(scope="module")
def scenario():
    return DublinScenario(
        ScenarioConfig(
            seed=31,
            rows=12,
            cols=12,
            n_intersections=40,
            n_buses=60,
            n_lines=8,
            unreliable_fraction=0.15,
            n_incidents=6,
            incident_window=(0, 1800),
        )
    )


@pytest.fixture(scope="module")
def system_and_report(scenario):
    system = UrbanTrafficSystem(
        scenario,
        SystemConfig(
            window=600,
            step=300,
            adaptive=True,
            noisy_variant="crowd",
            n_participants=40,
            seed=31,
        ),
    )
    return system, system.run(0, 1800)


class TestMeasuredFlowEstimation:
    def test_flow_estimator_fed_by_scats_readings(self, system_and_report):
        system, _ = system_and_report
        assert system.flow_estimator.coverage(1800) > 0.0

    def test_estimates_cover_whole_city(self, scenario, system_and_report):
        _, report = system_and_report
        assert set(report.flow_estimates) == set(scenario.network.graph.nodes)

    def test_ground_truth_fallback_before_any_reading(self, scenario):
        system = UrbanTrafficSystem(
            scenario,
            SystemConfig(crowd_enabled=False),
        )
        # No run() yet: the rolling estimator is empty, so the snapshot
        # falls back to the substrate's ground truth.
        estimates = system.estimate_citywide(900)
        assert len(estimates) == scenario.network.n_junctions()


class TestPriors:
    def test_prior_built_from_bus_reports(self, system_and_report):
        system, _ = system_and_report
        assert system.crowd_loop._bus_reports, "prior index must be populated"
        # At least one crowdsourced task should have carried a
        # non-uniform prior.
        non_uniform = [
            o
            for o in system.crowd.outcomes
            if len(set(round(v, 6) for v in o.task.prior.values())) > 1
        ]
        assert non_uniform

    def test_prior_equals_the_scan_over_the_report_list(
        self, scenario, system_and_report
    ):
        # The index is sorted time/bit arrays read with two binary
        # searches; the reference is the list scan it replaced, over
        # the same gps stream.
        from repro.crowd import bus_report_prior

        system, _ = system_and_report
        reports: dict = {}
        for fact in scenario.generate(0, 1800).facts:
            for int_id in scenario.topology.intersections_close_to(
                fact.value["lon"], fact.value["lat"]
            ):
                reports.setdefault(int_id, []).append(
                    (fact.time, fact.value["congestion"])
                )
        assert set(reports) == set(system.crowd_loop._bus_reports)
        window = PRIOR_WINDOW_S
        checked = 0
        for int_id in [*reports, "no-such-intersection"]:
            for q in range(0, 2400, 150):
                recent = [
                    bit
                    for t, bit in reports.get(int_id, ())
                    if q - window < t <= q
                ]
                expected = (
                    bus_report_prior(sum(recent), len(recent))
                    if recent
                    else None
                )
                assert system.crowd_loop.prior(int_id, q) == expected
                checked += expected is not None
        assert checked

    @pytest.mark.parametrize("profile", [None, "chaos_day"])
    def test_index_equals_the_per_row_join(self, scenario, profile):
        # The index is one array close/4 join over the gps block and a
        # stable sort by intersection; the reference is the loop it
        # replaced, one scalar lookup per report — over a clean stream
        # and one with delayed, dropped, duplicated and corrupted rows.
        system = UrbanTrafficSystem(
            scenario,
            SystemConfig(fault_profile=profile, crowd_enabled=False, seed=31),
        )
        data, _ = system._stream(system, 0, 1800)
        system._index_inputs(data)
        reports: dict = {}
        for fact in data.facts:
            for int_id in scenario.topology.intersections_close_to(
                fact.value["lon"], fact.value["lat"]
            ):
                times, bits = reports.setdefault(int_id, ([], []))
                times.append(fact.time)
                bits.append(fact.value["congestion"])
        assert len(reports) > 10
        assert set(reports) == set(system.crowd_loop._bus_reports)
        for int_id, (times, bits) in reports.items():
            indexed_times, indexed_bits = system.crowd_loop._bus_reports[int_id]
            assert indexed_times.tolist() == times
            assert indexed_bits.tolist() == bits
            assert indexed_bits.dtype == np.array(bits).dtype
            for q in (600, 1200, 1800):
                recent = [
                    bit for t, bit in zip(times, bits) if q - 600 < t <= q
                ]
                assert system.crowd_loop.prior(int_id, q) == (
                    bus_report_prior(sum(recent), len(recent))
                    if recent
                    else None
                )

class TestRewards:
    def test_rewards_settled(self, system_and_report):
        _, report = system_and_report
        if report.crowd_resolutions:
            assert report.rewards
            assert all(v >= 0 for v in report.rewards.values())

class TestStructuredAndReliability:
    def test_structured_intersections_run(self, scenario):
        system = UrbanTrafficSystem(
            scenario,
            SystemConfig(
                adaptive=True,
                structured_intersections=True,
                crowd_enabled=False,
                seed=31,
            ),
        )
        report = system.run(0, 900)
        assert report.logs

    def test_scats_reliability_surface(self, scenario):
        system = UrbanTrafficSystem(
            scenario,
            SystemConfig(
                adaptive=True,
                scats_reliability=True,
                crowd_enabled=True,
                n_participants=40,
                seed=31,
            ),
        )
        report = system.run(0, 1800)
        # The fluent is evaluated (it may or may not fire depending on
        # the crowd's answers); trustedScatsCongestion exists alongside.
        names = set()
        for log in report.logs.values():
            for snapshot in log.snapshots:
                names.update(snapshot.fluents)
        assert "noisyScats" in names
        assert "trustedScatsCongestion" in names


class TestCrowdThrottling:
    """'To minimise the impact on the participants' — Section 5."""

    def _run(self, scenario, **overrides):
        defaults = dict(
            adaptive=True, noisy_variant="crowd", n_participants=40,
            seed=31,
        )
        defaults.update(overrides)
        system = UrbanTrafficSystem(scenario, SystemConfig(**defaults))
        return system.run(0, 1800)

    def test_cooldown_suppresses_requeries(self, scenario):
        eager = self._run(scenario, crowd_cooldown_s=1)
        throttled = self._run(scenario, crowd_cooldown_s=3600)
        total_eager = eager.crowd_resolutions + eager.crowd_unresolved
        total_throttled = (
            throttled.crowd_resolutions + throttled.crowd_unresolved
        )
        assert total_throttled <= total_eager
        if total_eager > total_throttled:
            assert throttled.crowd_suppressed > 0

    def test_suppressed_counted_in_report(self, scenario):
        report = self._run(scenario, crowd_cooldown_s=3600)
        assert report.crowd_suppressed >= 0  # field present and sane


class TestAlertSurfacing:
    def test_trend_and_noisy_scats_alerts(self, scenario):
        from repro.core.rtec import FreshResults

        system = UrbanTrafficSystem(
            scenario, SystemConfig(crowd_enabled=False)
        )
        fresh = FreshResults(
            occurrences=[],
            episodes=[
                ("densityTrend", ("I1", "N", "S1", "rising"), 100, None),
                ("densityTrend", ("I1", "N", "S1", "falling"), 200, None),
                ("noisyScats", ("I9",), 300, None),
            ],
        )
        system._surface_alerts("central", fresh)
        counts = system.console.counts()
        assert counts.get("density rising") == 1  # falling not alerted
        assert counts.get("scats unreliable") == 1
