"""Chaos tests: SIGKILL a shard worker mid-run and demand parity.

The contract (see ``docs/robustness.md``): killing any one worker —
mid-step, mid-checkpoint-write leaving a torn file, or between a
checkpoint and the snapshot it follows — restarts that shard from its
own newest valid checkpoint, caught up from the coordinator's history
of the feeds and queries it sent, while sibling shards keep flowing,
and the run's final output is byte-identical to the unharmed
single-process run.  Any retained checkpoint can be caught up, the
baseline included.  When the restart budget is exhausted the shard's
breaker latches open, the region enters the degradation timeline as
``shard:<region>``, and the survivors still finish their own regions
intact.
"""

import os

import pytest

from repro.faults import CrashInjector
from repro.recovery import CheckpointManager
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
        # Bounded replay: no more than checkpoint_interval steps
        # re-executed.
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

    def test_a_checkpoint_written_before_its_snapshot_was_sent(
        self, golden, tmp_path, monkeypatch
    ):
        # North's worker dies right after its step-6 checkpoint is on
        # disk (workers fork, so the patch reaches them).  The restored
        # worker must be at step 6 with step 6 delivered, not at step 6
        # asked for step 6 again.
        save = CheckpointManager.save

        def save_then_die(manager, step, payload, **kwargs):
            info = save(manager, step, payload, **kwargs)
            if manager.directory.name == "shard-north" and step == 6:
                os._exit(1)
            return info

        monkeypatch.setattr(CheckpointManager, "save", save_then_die)
        system = sharded_system(tmp_path, {})
        report = system.run(0, END)
        assert fingerprint(system, report) == golden
        counters = report.metrics["counters"]
        assert counters["shard.restarts"] == 1
        assert counters["shard.north.restarts"] == 1
        assert not [e for e in report.shard_events if e["event"] == "failed"]

    def test_a_restart_from_the_baseline_is_caught_up(
        self, golden, tmp_path, monkeypatch
    ):
        # North dies inside step 5; before its restart every checkpoint
        # but the step-0 baseline is gone, so the coordinator's history
        # must carry it through the four steps it had completed.
        system = sharded_system(
            tmp_path,
            {
                "north": [
                    CrashInjector(at_step=5, phase="step", mode="sigkill")
                ]
            },
        )
        spawn = ShardedRuntime._spawn

        def lose_all_but_the_baseline(runtime, region, kind, **payload):
            if kind == "restore":
                for path in (tmp_path / f"shard-{region}").glob("*.ckpt"):
                    if path.name != "checkpoint-00000000.ckpt":
                        path.unlink()
            spawn(runtime, region, kind, **payload)

        monkeypatch.setattr(
            ShardedRuntime, "_spawn", lose_all_but_the_baseline
        )
        report = system.run(0, END)
        assert fingerprint(system, report) == golden
        counters = report.metrics["counters"]
        assert counters["shard.restarts"] == 1
        assert counters["shard.north.recovery.replay.steps"] == 4
        assert [(e["event"], e["region"]) for e in report.shard_events] == [
            ("restart", "north")
        ]

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
