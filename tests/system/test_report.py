"""Tests for the standalone HTML run report."""

import pytest

from repro.dublin import DublinScenario, ScenarioConfig
from repro.system import (
    SystemConfig,
    UrbanTrafficSystem,
    render_html_report,
    write_html_report,
)


@pytest.fixture(scope="module")
def run():
    scenario = DublinScenario(
        ScenarioConfig(
            seed=53, rows=10, cols=10, n_intersections=25,
            n_buses=40, n_lines=6, unreliable_fraction=0.15,
            n_incidents=4, incident_window=(0, 1200),
        )
    )
    system = UrbanTrafficSystem(
        scenario,
        SystemConfig(adaptive=True, n_participants=25, seed=53),
    )
    return system, system.run(0, 1200)


class TestHtmlReport:
    def test_is_complete_html(self, run):
        system, report = run
        doc = render_html_report(system, report, at=1200)
        assert doc.startswith("<!DOCTYPE html>")
        assert doc.rstrip().endswith("</html>")
        assert "<svg" in doc

    def test_contains_summary_numbers(self, run):
        system, report = run
        doc = render_html_report(system, report, at=1200)
        assert "recognition time" in doc
        assert str(report.crowd_resolutions) in doc
        # The two ingest layers side by side, in seconds.
        generate = report.metrics["timings"]["ingest.generate_seconds"]
        assert (
            'stream generation (s)</td><td class="num">'
            f"{generate['total']:.2f}" in doc
        )
        assert "recognition loop (s)" in doc

    def test_alert_kinds_listed(self, run):
        system, report = run
        doc = render_html_report(system, report, at=1200)
        for kind in report.console.counts():
            assert kind in doc

    def test_rewards_section_when_present(self, run):
        system, report = run
        doc = render_html_report(system, report, at=1200)
        if report.rewards:
            assert "participant rewards" in doc

    def test_alert_feed_escaped_and_limited(self, run):
        system, report = run
        doc = render_html_report(system, report, at=1200, max_alerts=5)
        assert "last 5" in doc

    def test_write_to_file(self, run, tmp_path):
        system, report = run
        path = write_html_report(system, report, tmp_path / "run.html",
                                 at=1200)
        assert path.exists()
        assert path.stat().st_size > 1000

    def test_deterministic(self, run):
        system, report = run
        a = render_html_report(system, report, at=1200)
        b = render_html_report(system, report, at=1200)
        assert a == b


class TestOutageTimeline:
    def test_shard_events_and_breakers_rendered(self, run):
        system, report = run
        report.shard_events = [
            {
                "event": "restart",
                "region": "north",
                "step": 5,
                "q": 1500,
                "attempt": 1,
            },
            {
                "event": "failed",
                "region": "north",
                "step": 7,
                "q": 2100,
                "reason": "worker exited",
                "deaths": 2,
            },
        ]
        report.degraded = {"shard:north": [(2100, None)]}
        report.metrics.setdefault("gauges", {})[
            "shard.breaker.north.state"
        ] = 1.0
        try:
            doc = render_html_report(system, report, at=1200)
        finally:
            report.shard_events = []
            report.degraded = {}
            del report.metrics["gauges"]["shard.breaker.north.state"]
        assert "outage timeline" in doc
        assert "worker restarted from its checkpoint (attempt 1, step 5)" in doc
        assert "restart budget exhausted after 2 worker deaths" in doc
        assert "feed shard:north" in doc
        assert "breakers at end of run" in doc
        assert "shard north" in doc and "open" in doc

    def test_degraded_feed_states_always_listed(self, run):
        system, report = run
        doc = render_html_report(system, report, at=1200)
        # The per-feed degraded gauges exist on every run, so the
        # breaker table is always present even with no outages.
        assert "breakers at end of run" in doc
        assert "feed scats" in doc and "feed bus" in doc
