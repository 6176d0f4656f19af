"""Ablation A7: what the Streams wiring costs.

The paper runs every component inside the Streams framework, paying
data-flow overhead (building, queueing, copying and dispatching data
items) on top of the analysis work.  This ablation measures that tax
in the reproduction: one :class:`~repro.system.SystemConfig` and one
day, run (a) by the direct loop of
:class:`~repro.system.pipeline.UrbanTrafficSystem` and (b) by the same
system wired as the Section 3 data-flow graph
(:func:`~repro.system.topology.build_paper_topology`), whose items
each carry one recognition step's column block per feed, or one
step's results.  Both wirings run the same stage code on the same
engines, crowd loop and flow estimator — the bench asserts they
recognise, alert and crowdsource the same things — so the difference
between them is the graph's transport and nothing else.
"""

from __future__ import annotations

import time

from repro.dublin import DublinScenario, ScenarioConfig
from repro.streams import StreamRuntime
from repro.system import UrbanTrafficSystem, build_paper_topology

from conftest import emit, system_config

DURATION = 1800


def _system():
    scenario = DublinScenario(
        ScenarioConfig(
            seed=59,
            rows=12,
            cols=12,
            n_intersections=50,
            n_buses=80,
            n_lines=10,
            unreliable_fraction=0.1,
            n_incidents=6,
            incident_window=(0, DURATION),
        )
    )
    return UrbanTrafficSystem(
        scenario,
        system_config(adaptive=True, noisy_variant="crowd",
                      n_participants=30, seed=59),
    )


def _recognised(logs):
    """Per region and query: what was admitted and what was recognised."""
    return {
        region: [
            (s.query_time, s.n_new_events, s.occurrences, s.fluents)
            for s in log.snapshots
        ]
        for region, log in logs.items()
    }


def _run_direct():
    system = _system()
    t0 = time.process_time()
    report = system.run(0, DURATION)
    elapsed = time.process_time() - t0
    return {
        "elapsed": elapsed,
        "alerts": report.console.alerts,
        "recognised": _recognised(report.logs),
        "crowd": (report.crowd_resolutions, report.crowd_unresolved,
                  report.crowd_suppressed),
    }


def _run_middleware():
    system = _system()
    t0 = time.process_time()
    paper = build_paper_topology(system, 0, DURATION)
    t1 = time.process_time()
    stats = StreamRuntime(paper.topology).run()
    system.estimate_citywide(DURATION)
    t2 = time.process_time()
    crowd = system.crowd_loop
    return {
        "elapsed": t2 - t0,
        "build": t1 - t0,
        "dispatch": t2 - t1,
        "items": stats.items_ingested,
        "delivered": stats.items_delivered,
        "fresh": sum(
            len(item["fresh"].episodes) + len(item["fresh"].occurrences)
            for item in paper.topology.queues["complex-events"]
        ),
        "alerts": system.console.alerts,
        "recognised": _recognised(
            {r: p.log for r, p in paper.rtec_processors.items()}
        ),
        "crowd": (crowd.resolved, crowd.unresolved, crowd.suppressed),
    }


def test_ablation_middleware_overhead(benchmark):
    rows = {}

    def run():
        rows["direct"] = _run_direct()
        rows["middleware"] = _run_middleware()
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    direct, middleware = rows["direct"], rows["middleware"]
    ratio = middleware["elapsed"] / max(direct["elapsed"], 1e-9)
    resolved, unresolved, suppressed = middleware["crowd"]
    n_alerts = len(direct["alerts"])
    items = (
        f"{middleware['items']} source items, "
        f"{middleware['delivered']} emitted"
    )

    lines = [
        "Ablation A7 — one system, two wirings: the direct loop vs the "
        "Section 3 Streams data-flow graph (one SystemConfig, the same "
        "30-minute day)",
        f"{'wiring':<22}{'CPU (s)':>9}{'notes':>52}",
        f"{'direct loop':<22}{direct['elapsed']:>9.2f}"
        f"{str(n_alerts) + ' alerts':>52}",
        f"{'streams graph':<22}{middleware['elapsed']:>9.2f}"
        f"{items:>52}",
        f"{'  generate + build':<22}{middleware['build']:>9.2f}"
        f"{'the stream, split and cut into step blocks':>52}",
        f"{'  dispatch':<22}{middleware['dispatch']:>9.2f}"
        f"{'queries, alerts, crowd, feedback, flows':>52}",
        f"graph/direct CPU ratio: {ratio:.2f}x",
        f"finding: both wirings run the same stage code, so they admit "
        f"and recognise the same CEs at every query, raise the same "
        f"{n_alerts} alerts in the same order and crowdsource the same "
        f"disagreements ({resolved} resolved / {unresolved} unresolved "
        f"/ {suppressed} suppressed); with one column block per feed "
        f"and step, the graph moves {middleware['items']} source items "
        f"and its transport costs {ratio:.2f}x the loop's CPU.",
    ]
    emit("ablation_middleware.txt", lines)

    # --- shape assertions -------------------------------------------------
    # 1. Both wirings recognise work (not vacuous runs) ...
    assert middleware["fresh"] > 0
    assert n_alerts > 0
    # 2. ... the *same* work: A7 compares transport, not analysis.
    assert middleware["recognised"] == direct["recognised"]
    assert middleware["alerts"] == direct["alerts"]
    assert middleware["crowd"] == direct["crowd"]
    assert sum(middleware["crowd"]) > 0
    # 3. The middleware tax is small: items are step blocks, not SDEs.
    assert ratio < 1.5
    # 4. A handful of items per step crossed the graph.
    assert 0 < middleware["items"] + middleware["delivered"] < 200
