"""Crash-recovery parity: kill the pipeline anywhere, resume, and get
byte-identical output.

The contract under test (see ``docs/recovery.md``):

* checkpointing is observation-only — a run with a coordinator
  attached produces exactly the output of one without;
* after a crash at *any* step (including mid-checkpoint-write, leaving
  a torn file), ``resume_run`` restores the newest valid checkpoint,
  replays at most one journal segment, and finishes with the same CE
  intervals, alerts, degradation timeline, crowd ``p_i`` estimates and
  item counters as the uninterrupted run;
* replayed items are counted exactly once: the metrics registry is
  part of the checkpointed graph, so re-applied increments start from
  the checkpointed values.

``recovery.*`` counters legitimately differ between a resumed and an
uninterrupted run (the resumed one restored and replayed); they are
deliberately outside the parity fingerprint.
"""

import pytest

from repro.dublin import DublinScenario, ScenarioConfig
from repro.faults import CrashInjector
from repro.recovery import (
    WriteAheadJournal,
    resume_run,
    run_resilient,
    run_with_recovery,
)
from repro.system import SystemConfig, UrbanTrafficSystem

SCENARIO = dict(
    seed=3,
    n_buses=12,
    n_lines=3,
    n_intersections=10,
    n_incidents=3,
    incident_window=(0, 3000),
)
CONFIG = dict(
    n_participants=12,
    seed=3,
    checkpoint_interval=3,
    fault_profile="chaos_day",
)
STEPS = 12
END = STEPS * 300


def build_system():
    return UrbanTrafficSystem(
        DublinScenario(ScenarioConfig(**SCENARIO)), SystemConfig(**CONFIG)
    )


def fingerprint(system, report):
    """Everything the run *produced*, serialised for equality checks."""
    ce = {}
    for region, log in report.logs.items():
        seen = set()
        for snap in log.snapshots:
            for name, occs in snap.occurrences.items():
                for occ in occs:
                    seen.add((name, occ.key, occ.time))
        ce[region] = sorted(map(repr, seen))
    counters = report.metrics.get("counters", {})
    return {
        "ce": ce,
        "alerts": [repr(a) for a in report.console.alerts],
        "degraded": repr(report.degraded),
        "p_i": repr(
            sorted(system.crowd.aggregator.error_probabilities.items())
        ),
        "crowd": (
            report.crowd_resolutions,
            report.crowd_unresolved,
            report.crowd_suppressed,
        ),
        "rewards": repr(sorted(report.rewards.items())),
        "flow": repr(sorted(report.flow_estimates.items())),
        # Exactly-once check: replayed work must not double-count.
        "items": {
            k: v
            for k, v in counters.items()
            if k.startswith(("process.", "crowd.", "faults."))
        },
    }


@pytest.fixture(scope="module")
def golden():
    """Fingerprint of the uninterrupted (but checkpointed) run."""
    system = build_system()
    report = system.run(0, END)
    return fingerprint(system, report)


@pytest.mark.chaos
class TestCrashParity:
    def test_checkpointing_is_observation_only(self, golden, tmp_path):
        system = build_system()
        outcome = run_with_recovery(
            system, 0, END, tmp_path, crash=None
        )
        assert not outcome.crashed
        assert fingerprint(system, outcome.report) == golden

    @pytest.mark.parametrize("kill_step", [2, 5, 11])
    def test_kill_and_resume_restores_parity(
        self, golden, tmp_path, kill_step
    ):
        outcome = run_with_recovery(
            build_system(),
            0,
            END,
            tmp_path,
            crash=CrashInjector(at_step=kill_step),
        )
        assert outcome.crashed and outcome.crash_step == kill_step

        system, resumed = resume_run(tmp_path)
        assert not resumed.crashed
        revived = fingerprint(system, resumed.report)
        for key, value in golden.items():
            assert revived[key] == value, f"kill@{kill_step}: {key} diverged"

        counters = resumed.report.metrics["counters"]
        assert counters.get("recovery.restore.count") == 1
        # At most one journal segment is replayed: never more steps
        # than fit between two checkpoints.
        assert (
            counters.get("recovery.replay.steps", 0)
            <= CONFIG["checkpoint_interval"]
        )
        # The stream is generated once per run: a baseline restore
        # (kill at step 2) re-runs the ingest on a system that had not
        # generated yet, a later one regenerates on the pristine twin,
        # whose metrics are discarded with it.
        timings = resumed.report.metrics["timings"]
        assert timings["ingest.generate_seconds"]["count"] == 1

    def test_seeded_kill_step_is_deterministic(self, tmp_path):
        drawn = CrashInjector(seed=7, step_range=(1, STEPS))
        again = CrashInjector(seed=7, step_range=(1, STEPS))
        assert drawn.at_step == again.at_step  # seeded draw is stable
        outcome = run_with_recovery(
            build_system(), 0, END, tmp_path, crash=drawn
        )
        assert outcome.crashed
        assert outcome.crash_step == drawn.at_step

    def test_torn_checkpoint_falls_back_with_parity(self, golden, tmp_path):
        outcome = run_with_recovery(
            build_system(),
            0,
            END,
            tmp_path,
            crash=CrashInjector(at_step=6, phase="checkpoint"),
        )
        assert outcome.crashed and outcome.crash_phase == "checkpoint"

        system, resumed = resume_run(tmp_path)
        assert not resumed.crashed
        assert fingerprint(system, resumed.report) == golden
        counters = resumed.report.metrics["counters"]
        # The torn file was skipped; restore fell back one checkpoint.
        assert counters.get("recovery.restore.fallbacks") == 1

    def test_fallback_accounts_every_later_segment(self, golden, tmp_path):
        # Checkpoints at steps 3 and 6, death at the start of step 8,
        # then the newest checkpoint rots: the restore falls back to
        # step 3 and the journal it replays spans two segments.
        outcome = run_with_recovery(
            build_system(), 0, END, tmp_path, crash=CrashInjector(at_step=8)
        )
        assert outcome.crashed
        newest = tmp_path / "checkpoint-00000006.ckpt"
        data = bytearray(newest.read_bytes())
        data[len(data) // 2] ^= 0x01
        newest.write_bytes(bytes(data))

        system, resumed = resume_run(tmp_path)
        assert fingerprint(system, resumed.report) == golden
        counters = resumed.report.metrics["counters"]
        assert counters["recovery.restore.fallbacks"] == 1
        assert counters["recovery.replay.steps"] == 4  # steps 4..7
        # The superseded segment was archived, not appended to: every
        # step is journalled once in the live segments.
        journal = WriteAheadJournal(tmp_path)
        begun = [
            record["step"]
            for base in journal.segments_from(0)
            for record in journal.read_segment(base)
            if record["kind"] == "step"
        ]
        assert begun == sorted(set(begun)) and begun[-1] == STEPS

    def test_chained_crashes_run_resilient(self, golden, tmp_path):
        system, report = run_resilient(
            build_system(),
            0,
            END,
            tmp_path,
            crashes=[
                CrashInjector(at_step=4),
                CrashInjector(at_step=9),
                CrashInjector(at_step=9, phase="checkpoint"),
            ],
        )
        assert fingerprint(system, report) == golden
        # recovery.* counters are part of the checkpointed graph, so a
        # restore whose attempt dies before its first checkpoint rolls
        # its own increment back — the exact count is not a contract.
        assert report.metrics["counters"]["recovery.restore.count"] >= 1
