"""Self-contained HTML report of a system run.

The paper's output requirement is operator-facing: "a simple,
intuitive interactive map to present all traffic information and
alerts" (Section 2).  This module renders a system run as a single
HTML file — run summary, per-kind alert counts, the alert feed, the
crowd outcomes and the SVG city map inline — with no external assets
or scripts, so the file can be archived next to the benchmark outputs
and opened anywhere.
"""

from __future__ import annotations

import html
from pathlib import Path

from ..ioutils import atomic_write_text
from ..traffic_model.svg import render_city_svg
from .pipeline import SystemReport, UrbanTrafficSystem

_STYLE = """
body { font-family: sans-serif; margin: 2em; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
table { border-collapse: collapse; }
td, th { border: 1px solid #ccc; padding: 4px 10px; text-align: left; }
th { background: #f0f0f0; }
pre { background: #f7f7f7; padding: 1em; overflow-x: auto; }
.num { text-align: right; }
"""


def _outage_section(report: SystemReport, gauges) -> str:
    """The reliability story of the run in one place: degraded-feed
    intervals interleaved with shard supervisor events on the
    simulation clock, and the final shard-breaker and feed states."""
    timeline: list[tuple[int, str, str]] = []
    for feed in sorted(report.degraded):
        for start, end in report.degraded[feed]:
            span = (
                f"recovered at t={end}s"
                if end is not None
                else "until end of run"
            )
            timeline.append((start, f"feed {feed}", f"degraded ({span})"))
    for event in report.shard_events:
        region = event.get("region", "?")
        if event.get("event") == "restart":
            what = (
                f"worker restarted from its checkpoint (attempt "
                f"{event.get('attempt', '?')}, step {event.get('step', '?')})"
            )
        else:
            what = (
                f"restart budget exhausted after {event.get('deaths', '?')} "
                "worker deaths — region degraded for the rest of the run"
            )
        timeline.append((int(event.get("q", 0)), f"shard {region}", what))
    timeline.sort(key=lambda entry: entry[0])
    timeline_rows = "".join(
        f'<tr><td class="num">{t}</td><td>{html.escape(source)}</td>'
        f"<td>{html.escape(what)}</td></tr>"
        for t, source, what in timeline
    )

    breaker_rows = []
    for name in sorted(gauges):
        if name.startswith("shard.breaker.") and name.endswith(".state"):
            region = name[len("shard.breaker."):-len(".state")]
            breaker_rows.append(
                (
                    f"shard {region}",
                    "open" if gauges[name] >= 1.0 else "closed",
                )
            )
        elif name.startswith("system.feed.") and name.endswith(".degraded"):
            feed = name[len("system.feed."):-len(".degraded")]
            breaker_rows.append(
                (
                    f"feed {feed}",
                    "degraded" if gauges[name] >= 1.0 else "healthy",
                )
            )
    breaker_table = "".join(
        f"<tr><td>{html.escape(target)}</td>"
        f"<td>{html.escape(state)}</td></tr>"
        for target, state in breaker_rows
    )

    if not (timeline_rows or breaker_table):
        return ""
    parts = [
        "<h2>outage timeline</h2>",
        "<p>feed outages and shard supervisor events on the simulation "
        "clock; alerts derived from a degraded feed or failed shard "
        "were suppressed.</p>",
    ]
    if timeline_rows:
        parts.append(
            "<table><tr><th>t (s)</th><th>source</th><th>event</th></tr>"
            f"{timeline_rows}</table>"
        )
    else:
        parts.append("<p>no outages during this run.</p>")
    if breaker_table:
        parts.append(
            "<h2>breakers at end of run</h2>"
            "<table><tr><th>target</th><th>state</th></tr>"
            f"{breaker_table}</table>"
        )
    return "".join(parts)


def render_html_report(
    system: UrbanTrafficSystem,
    report: SystemReport,
    *,
    at: int,
    max_alerts: int = 40,
) -> str:
    """Render one run as a standalone HTML document string."""
    console = report.console
    rows = []
    for kind, count in sorted(console.counts().items()):
        rows.append(
            f"<tr><td>{html.escape(kind)}</td>"
            f'<td class="num">{count}</td></tr>'
        )
    counts_table = (
        "<table><tr><th>alert kind</th><th>count</th></tr>"
        + "".join(rows)
        + "</table>"
    )

    feed = html.escape(console.render(limit=max_alerts))

    estimates = system.estimate_citywide(at)
    peak = max(estimates.values(), default=0.0)
    congestion = {n: peak - v for n, v in estimates.items()}
    svg = render_city_svg(
        system.scenario.network.positions(),
        system.scenario.network.graph.edges,
        values=congestion,
        sensors=system.scenario.node_of.values(),
        title=f"estimated congestion at t={at}s (red = congested)",
    )

    reward_rows = "".join(
        f"<tr><td>{html.escape(pid)}</td>"
        f'<td class="num">{value:.2f}</td></tr>'
        for pid, value in sorted(report.rewards.items())
    )
    rewards_section = (
        "<h2>participant rewards</h2><table>"
        "<tr><th>participant</th><th>reward</th></tr>"
        f"{reward_rows}</table>"
        if report.rewards
        else ""
    )

    metrics = report.metrics or {}
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    seconds = {
        name: f"{summary['total']:.2f}"
        for name, summary in metrics.get("timings", {}).items()
    }
    engine_rows = []
    for label, value in (
        ("SDEs ingested", counters.get("ingest.events")),
        ("ingest throughput (SDE/s)", gauges.get("ingest.events_per_s")),
        ("stream generation (s)", seconds.get("ingest.generate_seconds")),
        ("recognition loop (s)", seconds.get("ingest.loop_seconds")),
        ("compiled rule evaluations", counters.get("rtec.compiled.evals")),
        (
            "interpreter fallbacks",
            counters.get("rtec.compiled.fallbacks"),
        ),
    ):
        if not value:
            continue
        shown = f"{value:.0f}" if isinstance(value, float) else str(value)
        engine_rows.append(
            f"<tr><td>{html.escape(label)}</td>"
            f'<td class="num">{shown}</td></tr>'
        )
    engine_section = (
        "<h2>engine</h2><table>"
        "<tr><th>metric</th><th>value</th></tr>"
        + "".join(engine_rows)
        + "</table>"
        if engine_rows
        else ""
    )

    degraded_section = _outage_section(report, gauges)

    return f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>urban traffic management — run report</title>
<style>{_STYLE}</style></head><body>
<h1>Urban traffic management — run report</h1>
<p>mean CE recognition time:
{report.mean_recognition_time * 1000:.1f}&nbsp;ms/query ·
crowd disagreements resolved: {report.crowd_resolutions}
(unresolved: {report.crowd_unresolved})</p>
<h2>alerts</h2>
{counts_table}
<h2>alert feed (last {max_alerts})</h2>
<pre>{feed}</pre>
{engine_section}
{degraded_section}
{rewards_section}
<h2>city map</h2>
{svg}
</body></html>
"""


def write_html_report(
    system: UrbanTrafficSystem,
    report: SystemReport,
    path: str | Path,
    *,
    at: int,
    max_alerts: int = 40,
) -> Path:
    """Render with :func:`render_html_report` and write to ``path``."""
    path = Path(path)
    atomic_write_text(
        path,
        render_html_report(system, report, at=at, max_alerts=max_alerts),
    )
    return path
