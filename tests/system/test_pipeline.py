"""Tests for the integrated urban-traffic system pipeline."""

import pytest

from repro.core import RTEC
from repro.core.reference import ReferenceRTEC
from repro.dublin import DublinScenario, ScenarioConfig
from repro.recovery import CheckpointCoordinator
from repro.system import SystemConfig, SystemReport, UrbanTrafficSystem


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


@pytest.fixture(scope="module")
def report(scenario):
    system = UrbanTrafficSystem(
        scenario,
        SystemConfig(
            window=600, step=300, adaptive=True, noisy_variant="crowd",
            n_participants=30, seed=2,
        ),
    )
    return system.run(0, 1800)


class TestUrbanTrafficSystem:
    def test_all_regions_have_engines(self, scenario):
        system = UrbanTrafficSystem(scenario)
        assert set(system.engines) == {"central", "north", "west", "south"}

    def test_the_config_pair_selects_the_engine_class(self, scenario):
        reference = SystemConfig(
            incremental=False, compiled_rules=False, crowd_enabled=False
        )
        for config, engine_class in (
            (SystemConfig(crowd_enabled=False), RTEC),
            (reference, ReferenceRTEC),
        ):
            system = UrbanTrafficSystem(scenario, config)
            assert {type(e) for e in system.engines.values()} == {engine_class}

    def test_the_reference_engine_refuses_a_recovery_coordinator(
        self, scenario, tmp_path
    ):
        system = UrbanTrafficSystem(
            scenario, SystemConfig(incremental=False, compiled_rules=False)
        )
        with pytest.raises(ValueError, match="no streamless checkpoint"):
            system.run(0, 600, recovery=CheckpointCoordinator(tmp_path))

    def test_run_produces_recognition_logs(self, report):
        assert set(report.logs) == {"central", "north", "west", "south"}
        for log in report.logs.values():
            assert len(log.snapshots) == 6  # 1800 / 300

    def test_mean_recognition_time_positive(self, report):
        assert report.mean_recognition_time > 0.0

    def test_unreliable_buses_create_disagreements(self, report):
        # 15% of buses report a stuck congestion bit: the system must
        # surface source disagreements.
        assert report.console.counts().get("source disagreement", 0) > 0

    def test_crowd_resolves_disagreements(self, report):
        assert report.crowd_resolutions > 0
        assert report.console.counts().get("crowd resolution", 0) == (
            report.crowd_resolutions
        )

    def test_flow_estimates_cover_city(self, scenario, report):
        assert set(report.flow_estimates) == set(
            scenario.network.graph.nodes
        )

    def test_crowd_disabled_leaves_unresolved(self, scenario):
        system = UrbanTrafficSystem(
            scenario,
            SystemConfig(crowd_enabled=False, seed=2),
        )
        report = system.run(0, 900)
        assert report.crowd_resolutions == 0
        if report.console.counts().get("source disagreement"):
            assert report.crowd_unresolved > 0

    def test_render_city_map(self, scenario):
        system = UrbanTrafficSystem(
            scenario, SystemConfig(crowd_enabled=False)
        )
        rendered = system.render_city_map(900)
        assert "low" in rendered and "high" in rendered
        assert len(rendered.split("\n")) > 10

    def test_total_occurrences_deduplicates(self, report):
        # agree events recur across overlapping windows; totals count
        # each (key, time) once.
        total = report.total_occurrences("agree")
        raw = sum(
            len(s.all_occurrences("agree"))
            for log in report.logs.values()
            for s in log.snapshots
        )
        assert 0 < total <= raw

    def test_report_empty_logs_mean(self):
        report = SystemReport(logs={}, console=None)
        assert report.mean_recognition_time == 0.0


class TestAdaptationEffect:
    def test_adaptive_discards_unreliable_buses_eventually(self, scenario):
        # Under rule-set (5) the stuck buses become noisy; their later
        # reports are discarded, so adaptive recognition produces fewer
        # distinct bus-congestion episodes than static recognition.
        static = UrbanTrafficSystem(
            scenario,
            SystemConfig(adaptive=False, crowd_enabled=False, seed=2),
        ).run(0, 1800)
        adaptive = UrbanTrafficSystem(
            scenario,
            SystemConfig(adaptive=True, noisy_variant="pessimistic",
                         crowd_enabled=False, seed=2),
        ).run(0, 1800)
        static_alerts = static.console.counts().get("bus congestion", 0)
        adaptive_alerts = adaptive.console.counts().get("bus congestion", 0)
        assert adaptive_alerts <= static_alerts
