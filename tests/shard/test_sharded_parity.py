"""Determinism contract of the sharded runtime: an N-worker run is
byte-identical to the single-process loop.

Same scenario scale as the crash-parity suite (``tests/recovery``);
the fingerprint deliberately excludes the ``shard.*`` / ``recovery.*``
namespaces (bookkeeping of *how* the run executed) and compares
everything the run *produced*.
"""

import pytest

from repro.dublin import DublinScenario, ScenarioConfig
from repro.system import SystemConfig, UrbanTrafficSystem

SCENARIO = dict(
    seed=3,
    n_buses=12,
    n_lines=3,
    n_intersections=10,
    n_incidents=3,
    incident_window=(0, 3000),
)
CONFIG = dict(n_participants=12, seed=3, checkpoint_interval=3)
STEPS = 12
END = STEPS * 300


def build_system(**overrides):
    config = dict(CONFIG)
    config.update(overrides)
    return UrbanTrafficSystem(
        DublinScenario(ScenarioConfig(**SCENARIO)), SystemConfig(**config)
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
        "items": {
            k: v
            for k, v in counters.items()
            if k.startswith(
                ("process.", "crowd.", "faults.", "ingest.events")
            )
        },
    }


@pytest.fixture(scope="module")
def golden():
    """Fingerprint of the single-process run."""
    system = build_system()
    report = system.run(0, END)
    return fingerprint(system, report)


class TestShardedParity:
    def test_four_shard_run_matches_single_process(self, golden, tmp_path):
        system = build_system(sharded=True, shard_dir=str(tmp_path))
        report = system.run(0, END)
        assert fingerprint(system, report) == golden
        assert report.shard_events == []

    def test_worker_metrics_are_namespaced_per_shard(self, tmp_path):
        system = build_system(sharded=True, shard_dir=str(tmp_path))
        report = system.run(0, END)
        counters = report.metrics["counters"]
        regions = list(system.engines)
        assert len(regions) >= 2
        for region in regions:
            assert counters[f"shard.{region}.queries"] == STEPS
            assert counters[f"shard.{region}.recovery.checkpoint.writes"] >= 1
        # The merge prefixes instead of overwriting: per-region query
        # counts survive side by side.
        total = sum(counters[f"shard.{region}.queries"] for region in regions)
        assert total == STEPS * len(regions)

    def test_per_shard_recovery_state_on_disk(self, tmp_path):
        system = build_system(sharded=True, shard_dir=str(tmp_path))
        system.run(0, END)
        for region in system.engines:
            shard_dir = tmp_path / f"shard-{region}"
            assert (shard_dir / "checkpoint-00000000.ckpt").exists()
            # Checkpoints only: no journal, no snapshot log.
            names = [path.name for path in shard_dir.iterdir()]
            assert names and all(
                name.startswith("checkpoint-") and name.endswith(".ckpt")
                for name in names
            )

    def test_recovery_and_sharded_are_mutually_exclusive(self, tmp_path):
        system = build_system(sharded=True, shard_dir=str(tmp_path))
        with pytest.raises(ValueError, match="per-shard recovery"):
            system.run(0, END, recovery=object())
