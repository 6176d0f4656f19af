"""Figure 4: event recognition performance vs working-memory size.

The paper streams one month of Dublin data (942 buses emitting every
20–30 s — one SDE every ~2 s on average for the *operating* subset —
plus 966 SCATS sensors every 6 min) into RTEC and reports the average
CE recognition time per query for working memories from 10 min
(≈12.5 k SDEs) to 110 min (≈152 k SDEs), for *static* and
*self-adaptive* recognition, with recognition distributed over the four
city regions.  Both curves grow roughly linearly with the window, the
self-adaptive overhead is minimal, and recognition stays well under
real time (the paper's worst case is ~8 s for a 110-minute window).

This bench regenerates the series on the synthetic stream, scaled to
the paper's SDE density (≈21 SDEs/s fleet-wide).
"""

from __future__ import annotations

import gc

import pytest

from repro.core import RTEC, RecognitionLog
from repro.core.traffic import build_traffic_definitions, default_traffic_params
from repro.dublin import DublinScenario, ScenarioConfig

from conftest import bench_scale, emit

#: Paper series: working-memory sizes in minutes.
WM_MINUTES = (10, 30, 50, 70, 90, 110)
STEP_S = 600  # 10-minute step, the smallest WM in the series


def _scenario_and_split():
    """The 110-minute stream at the paper's SDE density, pre-split by
    region (recognition is distributed as in Section 7.1)."""
    scale = bench_scale()
    scenario = DublinScenario(
        ScenarioConfig(
            seed=4,
            n_buses=max(int(450 * scale), 20),
            n_lines=30,
            n_intersections=max(int(350 * scale), 20),
            unreliable_fraction=0.05,
            n_incidents=10,
            incident_window=(0, 110 * 60),
        )
    )
    data = scenario.generate(0, 110 * 60 + STEP_S)
    return scenario, data, scenario.split_by_region(data)


def _recognition_series(scenario, data, split, adaptive: bool):
    """Mean recognition time per query for every WM size.

    For each WM the four per-region engines answer four consecutive
    query times; the first is discarded as warm-up (allocator and cache
    effects dominate the smallest windows otherwise) and the reported
    cost of one recognition step is the sum over regions (the paper
    used four processors in parallel, so the wall-clock would be the
    max; we report both).
    """
    params = default_traffic_params()
    series = []
    for wm_minutes in WM_MINUTES:
        # Timing hygiene: collect garbage from the previous
        # configuration, then keep the collector out of the timed
        # queries (its pauses would be charged to arbitrary rows).
        gc.collect()
        gc.disable()
        window = wm_minutes * 60
        per_query_totals = []
        per_query_max = []
        n_sdes = 0
        logs = {}
        engines = {}
        for region, batch in split.items():
            definitions = build_traffic_definitions(
                scenario.topology,
                adaptive=adaptive,
                noisy_variant="pessimistic",
            )
            engine = RTEC(
                definitions, window=window, step=STEP_S, params=params,
                start=window - STEP_S,
            )
            engine.feed_columns(batch)
            engines[region] = engine
            logs[region] = RecognitionLog()
        for i in range(4):
            q = window + i * STEP_S
            elapsed = {}
            for region, engine in engines.items():
                snapshot = engine.query(q)
                logs[region].add(snapshot)
                elapsed[region] = snapshot.elapsed
                if i == 0:
                    n_sdes += snapshot.n_events
            if i == 0:
                continue  # warm-up query: exclude from the averages
            per_query_totals.append(sum(elapsed.values()))
            per_query_max.append(max(elapsed.values()))
        gc.enable()
        series.append(
            {
                "wm_minutes": wm_minutes,
                "n_sdes": n_sdes,
                "mean_total_s": sum(per_query_totals) / len(per_query_totals),
                "mean_max_region_s": sum(per_query_max) / len(per_query_max),
            }
        )
    return series


@pytest.fixture(scope="module")
def workload():
    return _scenario_and_split()


def test_fig4_recognition_performance(benchmark, workload):
    scenario, data, split = workload

    results = {}

    def run():
        results["static"] = _recognition_series(
            scenario, data, split, adaptive=False
        )
        results["adaptive"] = _recognition_series(
            scenario, data, split, adaptive=True
        )
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    static, adaptive = results["static"], results["adaptive"]

    lines = [
        "Figure 4 — event recognition performance "
        f"(stream: {data.n_sdes} SDEs over {data.end - data.start}s, "
        f"{data.sde_rate():.1f} SDE/s; 4-region distribution)",
        f"{'WM (min)':>8} {'#SDEs':>9} {'static (s)':>12} "
        f"{'adaptive (s)':>13} {'overhead':>9} {'max-region (s)':>15}",
    ]
    for s, a in zip(static, adaptive):
        overhead = (
            (a["mean_total_s"] - s["mean_total_s"]) / s["mean_total_s"]
            if s["mean_total_s"] > 0
            else 0.0
        )
        lines.append(
            f"{s['wm_minutes']:>8} {s['n_sdes']:>9} "
            f"{s['mean_total_s']:>12.3f} {a['mean_total_s']:>13.3f} "
            f"{overhead:>8.0%} {a['mean_max_region_s']:>15.3f}"
        )
    lines.append(
        "paper shape: both curves grow with WM; self-adaptive overhead "
        "minimal; real-time (time per query << WM span)."
    )
    emit("fig4_recognition.txt", lines)
    benchmark.extra_info["series"] = {"static": static, "adaptive": adaptive}

    # --- shape assertions -------------------------------------------------
    # 1. Cost grows with the window for both modes.
    assert static[-1]["mean_total_s"] > static[0]["mean_total_s"]
    assert adaptive[-1]["mean_total_s"] > adaptive[0]["mean_total_s"]
    # 2. SDE counts grow ~linearly with WM (the x-axis of Figure 4).
    assert static[-1]["n_sdes"] > 5 * static[0]["n_sdes"]
    # 3. Self-adaptive recognition has limited overhead over static:
    #    per row it never blows up (noise allowance 2.25x) and on
    #    average it stays under 2x (the paper calls it minimal).
    overheads = []
    for s, a in zip(static, adaptive):
        assert a["mean_total_s"] <= s["mean_total_s"] * 2.25 + 0.05
        if s["mean_total_s"] > 0:
            overheads.append(a["mean_total_s"] / s["mean_total_s"])
    assert sum(overheads) / len(overheads) < 2.0
    # 4. Real-time: a recognition step costs far less than the step span.
    assert adaptive[-1]["mean_total_s"] < STEP_S


# ---------------------------------------------------------------------------
# Checkpoint overhead: durability must not tax the recognition loop
# ---------------------------------------------------------------------------
CKPT_STEPS = 12
CKPT_STEP_S = 300


def _pipeline_factory(**config_overrides):
    """A fresh integrated pipeline for one timed run (runs mutate the
    system *and* advance the scenario RNG, so every attempt needs its
    own of both).  ``config_overrides`` land on the
    :class:`~repro.system.SystemConfig` — the sharded-overhead gate
    builds its two sides from the same factory this way."""
    from repro.system import SystemConfig, UrbanTrafficSystem

    # Floors are deliberately high for an overhead *ratio*: on a
    # near-empty workload the fixed cost of serialising the street
    # graph would swamp the percentage and gate nothing meaningful.
    scale = bench_scale()

    def build():
        scenario = DublinScenario(
            ScenarioConfig(
                seed=4,
                n_buses=max(int(240 * scale), 100),
                n_lines=10,
                n_intersections=max(int(80 * scale), 30),
                n_incidents=4,
                incident_window=(0, CKPT_STEPS * CKPT_STEP_S),
            )
        )
        config = dict(n_participants=15, seed=4)
        config.update(config_overrides)
        return UrbanTrafficSystem(
            scenario,
            SystemConfig(**config),
        ), scenario

    return build


def test_checkpoint_overhead(benchmark):
    """Durability gate: running with the checkpoint coordinator at the
    default ``checkpoint_interval`` adds at most 10% to the recognition
    run.

    The gate measures the coordinator's *direct* cost — the time spent
    inside checkpoint writes (``recovery.checkpoint.seconds``) and
    journal appends (``recovery.journal.seconds``), both instrumented
    at the exact call sites — as a fraction of the plain run's wall
    time.  Wall-clock deltas between whole runs are reported for
    context but not gated on: identical plain runs on a shared machine
    vary by tens of percent (scheduler noise dwarfs the tens of
    milliseconds of actual durability work), while the in-situ timers
    capture precisely the work the coordinator adds and nothing else.
    A call-count audit confirms the coordinator adds no hidden
    recognition work, so direct cost *is* the overhead."""
    import tempfile
    from time import perf_counter

    from repro.recovery import run_with_recovery

    build = _pipeline_factory()
    end = CKPT_STEPS * CKPT_STEP_S
    results = {}

    def run():
        plain_times, ckpt_times, direct_times = [], [], []
        writes = 0
        # Interleave plain/checkpointed attempts so both sides sample
        # the same machine-load conditions.
        for _ in range(3):
            system, _ = build()
            gc.collect()
            t0 = perf_counter()
            system.run(0, end)
            plain_times.append(perf_counter() - t0)

            system, _ = build()
            with tempfile.TemporaryDirectory() as directory:
                gc.collect()
                t0 = perf_counter()
                outcome = run_with_recovery(system, 0, end, directory)
                ckpt_times.append(perf_counter() - t0)
                metrics = outcome.report.metrics
                writes = metrics["counters"]["recovery.checkpoint.writes"]
                timings = metrics["timings"]
                direct_times.append(
                    timings["recovery.checkpoint.seconds"]["total"]
                    + timings["recovery.journal.seconds"]["total"]
                )
        results["plain"] = min(plain_times)
        results["ckpt"] = min(ckpt_times)
        results["direct"] = min(direct_times)
        results["writes"] = writes
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    plain, ckpt = results["plain"], results["ckpt"]
    direct = results["direct"]
    overhead = direct / plain
    wall_delta = ckpt / plain - 1.0

    emit(
        "fig4_checkpoint_overhead.txt",
        [
            "Checkpoint overhead at the default interval "
            f"({CKPT_STEPS} steps of {CKPT_STEP_S}s, best of 3 "
            "interleaved pairs)",
            f"plain run         {plain:.3f}s",
            f"checkpointed run  {ckpt:.3f}s "
            f"({results['writes']} checkpoint writes, "
            f"wall delta {wall_delta:+.1%})",
            f"durability cost   {direct:.3f}s spent in checkpoint "
            "writes + journal appends",
            f"overhead          {overhead:+.1%} of the plain run "
            "(gate: <= 10%)",
        ],
    )
    benchmark.extra_info["checkpoint_overhead"] = overhead

    # The run actually checkpointed (baseline + at least one interval).
    assert results["writes"] >= 2
    assert overhead <= 0.10


# ---------------------------------------------------------------------------
# Sharded runtime overhead: process isolation must not tax steady state
# ---------------------------------------------------------------------------
def test_sharded_overhead(benchmark):
    """Sharding gate: running the per-region engines as supervised
    worker processes adds at most 15% to the steady-state recognition
    loop.

    Both sides are timed on ``ingest.loop_seconds`` — the instrumented
    span of the recognition loop itself — so the one-off sharded costs
    that happen *outside* the loop (forking four workers, shipping the
    fed engines, the shutdown drain and registry merge) are excluded
    by construction and only the per-step costs are gated: feed
    fan-out over the bus, snapshot serialisation back, write-ahead
    journaling and the interval checkpoint each worker owns.  Attempts
    are interleaved and the best of three kept, as in the checkpoint
    gate above."""
    build_plain = _pipeline_factory()
    build_sharded = _pipeline_factory(sharded=True)
    end = CKPT_STEPS * CKPT_STEP_S
    results = {}

    def loop_seconds(report):
        return report.metrics["timings"]["ingest.loop_seconds"]["total"]

    def run():
        plain_times, sharded_times = [], []
        for _ in range(3):
            system, _ = build_plain()
            gc.collect()
            plain_times.append(loop_seconds(system.run(0, end)))

            system, _ = build_sharded()
            gc.collect()
            report = system.run(0, end)
            assert report.shard_events == []  # a restart would skew it
            sharded_times.append(loop_seconds(report))
        results["plain"] = min(plain_times)
        results["sharded"] = min(sharded_times)
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    plain, sharded = results["plain"], results["sharded"]
    overhead = sharded / plain - 1.0

    emit(
        "fig4_sharded_overhead.txt",
        [
            "Sharded-runtime overhead on the recognition loop "
            f"({CKPT_STEPS} steps of {CKPT_STEP_S}s, 4 worker "
            "processes, best of 3 interleaved pairs)",
            f"single-process loop  {plain:.3f}s",
            f"sharded loop         {sharded:.3f}s",
            f"overhead             {overhead:+.1%} (gate: <= 15%)",
        ],
    )
    benchmark.extra_info["sharded_overhead"] = overhead

    assert overhead <= 0.15
