"""Chaos tests: SIGKILL a shard worker mid-run and demand parity.

The contract (see ``docs/robustness.md``): killing any one worker —
mid-step or mid-checkpoint-write, leaving a torn file — restarts that
shard from its own newest valid checkpoint plus at most one journal
segment, while sibling shards keep flowing, and the run's final output
is byte-identical to the unharmed single-process run.  When the
restart budget is exhausted the shard's breaker latches open, the
region enters the degradation timeline as ``shard:<region>``, and the
survivors still finish their own regions intact.  A worker restored
*behind* the coordinator (its journal lost a segment) is the one death
no restart can cure: the region fails at once, with the gap as the
reason, instead of burning its budget on refused re-requests.
"""

import pytest

from repro.faults import CrashInjector
from repro.shard import ShardedRuntime
from repro.system import pipeline

from .test_sharded_parity import (
    CONFIG,
    END,
    STEPS,
    build_system,
    fingerprint,
    golden,  # noqa: F401  (module-scoped fixture reused here)
)

INTERVAL = CONFIG["checkpoint_interval"]

# (region, step to kill at, phase) — covers every region once and both
# crash phases; checkpoint-phase kills land on interval steps so the
# torn-file fallback path actually runs.
KILL_MATRIX = [
    ("north", 5, "step"),
    ("south", 4, "checkpoint"),
    ("central", 11, "step"),
    ("west", 9, "checkpoint"),
]


def sharded_system(tmp_path, crash_plans, **overrides):
    system = build_system(
        sharded=True,
        shard_dir=str(tmp_path),
        **overrides,
    )
    system.shard_crash_plans = crash_plans
    return system


@pytest.fixture(autouse=True)
def quick_restarts(monkeypatch):
    """Restarts back off 10 ms here, not the deployed 50 ms."""
    monkeypatch.setattr(pipeline, "SHARD_RESTART_BACKOFF_S", 0.01)


@pytest.mark.chaos
class TestWorkerKill:
    @pytest.mark.parametrize("region,kill_step,phase", KILL_MATRIX)
    def test_sigkill_recovers_with_identical_output(
        self, golden, tmp_path, region, kill_step, phase
    ):
        system = sharded_system(
            tmp_path,
            {
                region: [
                    CrashInjector(
                        at_step=kill_step, phase=phase, mode="sigkill"
                    )
                ]
            },
        )
        report = system.run(0, END)
        assert fingerprint(system, report) == golden
        counters = report.metrics["counters"]
        assert counters["shard.restarts"] == 1
        assert counters[f"shard.{region}.restarts"] == 1
        assert counters[f"shard.{region}.recovery.restore.count"] == 1
        # Bounded replay: at most one journal segment, i.e. no more
        # than checkpoint_interval steps re-executed.
        assert (
            counters.get(f"shard.{region}.recovery.replay.steps", 0)
            <= INTERVAL
        )
        if phase == "checkpoint":
            # The kill left a torn checkpoint file; the restore must
            # have rejected it and fallen back to an older snapshot.
            assert (
                counters[f"shard.{region}.recovery.restore.fallbacks"] >= 1
            )
        restarts = [
            e for e in report.shard_events if e["event"] == "restart"
        ]
        assert [(e["region"], e["attempt"]) for e in restarts] == [
            (region, 1)
        ]

    def test_restart_storm_fails_shard_but_not_siblings(
        self, golden, tmp_path, monkeypatch
    ):
        # Two armed injectors: the second one ships with the restore
        # payload, so the restarted worker dies again re-executing the
        # same step — exhausting a budget of one restart.
        monkeypatch.setattr(pipeline, "SHARD_MAX_RESTARTS", 1)
        system = sharded_system(
            tmp_path,
            {
                "north": [
                    CrashInjector(at_step=4, phase="step", mode="sigkill"),
                    CrashInjector(at_step=4, phase="step", mode="sigkill"),
                ]
            },
        )
        report = system.run(0, END)
        events = [(e["event"], e["region"]) for e in report.shard_events]
        assert events == [("restart", "north"), ("failed", "north")]
        counters = report.metrics["counters"]
        assert counters["shard.failed"] == 1
        assert counters["shard.north.deaths"] == 2
        gauges = report.metrics["gauges"]
        assert gauges["shard.breaker.north.state"] == 1.0
        # The dead region is a forced outage on the degradation
        # timeline, open until end of run.
        assert report.degraded["shard:north"] == [(1200, None)]
        # Siblings completed every step and match the unharmed run.
        golden_fp = golden
        fp = fingerprint(system, report)
        for region in system.engines:
            if region == "north":
                continue
            assert fp["ce"][region] == golden_fp["ce"][region]
        # North stopped after its failure: it has strictly fewer
        # snapshots than the full run.
        assert len(report.logs["north"].snapshots) < STEPS

    def test_a_lost_journal_segment_fails_the_region_at_once(
        self, golden, tmp_path, monkeypatch
    ):
        # Checkpoints at steps 0 and 3; north dies inside step 5, so
        # the committed step 4 lives only in the segment after
        # checkpoint 3 — which is gone when the worker comes back.
        system = sharded_system(
            tmp_path,
            {
                "north": [
                    CrashInjector(at_step=5, phase="step", mode="sigkill")
                ]
            },
        )
        spawn = ShardedRuntime._spawn

        def lose_a_segment_first(runtime, region, *, engine=None):
            if engine is None:  # a restart
                (
                    tmp_path / f"shard-{region}" / "journal-00000003.wal"
                ).unlink()
            spawn(runtime, region, engine=engine)

        monkeypatch.setattr(ShardedRuntime, "_spawn", lose_a_segment_first)
        report = system.run(0, END)
        assert [(e["event"], e["region"]) for e in report.shard_events] == [
            ("restart", "north"),
            ("failed", "north"),
        ]
        assert report.shard_events[-1]["reason"] == (
            "journal gap: shard at step 3, coordinator at step 5"
        )
        counters = report.metrics["counters"]
        assert counters["shard.journal_gaps"] == 1
        assert counters["shard.restarts"] == 1
        # One death, of a budget of three: nothing was spent on
        # restarts that could only be refused.
        assert counters["shard.north.deaths"] == 1
        assert counters["shard.failed"] == 1
        assert report.degraded["shard:north"] == [(1500, None)]
        assert len(report.logs["north"].snapshots) == 4
        fp = fingerprint(system, report)
        for region in system.engines:
            if region != "north":
                assert fp["ce"][region] == golden["ce"][region]

    def test_failed_shard_suppresses_alerts_without_stalling(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(pipeline, "SHARD_MAX_RESTARTS", 1)
        system = sharded_system(
            tmp_path,
            {
                "north": [
                    CrashInjector(at_step=4, phase="step", mode="sigkill"),
                    CrashInjector(at_step=4, phase="step", mode="sigkill"),
                ]
            },
        )
        report = system.run(0, END)
        # The run completed (no exception, all steps accounted): every
        # surviving region has a snapshot per step.
        for region in system.engines:
            if region == "north":
                continue
            assert len(report.logs[region].snapshots) == STEPS
        assert "shard:north" in report.degraded
