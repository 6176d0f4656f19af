"""A shard worker's own durability, driven in-process.

The worker uses the pipeline's ``CheckpointCoordinator`` over its shard
directory; these tests pin the two places where a second, drifted
coordinator used to get a shard directory wrong — a restore that falls
back over a corrupt checkpoint must replay *every* journal segment
after the one it restored, and journal segments below the oldest
retained mid-run checkpoint must be pruned — plus the worker's refusal
to run a step it cannot reach.
"""

import pytest

from repro.shard import ShardWorker

from ..core.helpers import (
    CONGESTED,
    FREE,
    crowd_event,
    make_engine,
    make_topology,
    traffic_event,
)

STEP = 300


def fed_engine():
    """A small traffic engine with congestion coming and going."""
    engine = make_engine(make_topology(2), window=600, step=STEP)
    events = []
    for t in range(30, 14 * STEP, 60):
        reading = CONGESTED if (t // 900) % 2 else FREE
        events.append(traffic_event(t, "I1", **reading))
        events.append(traffic_event(t, "I2", sensor="S2", **FREE))
    engine.feed(events)
    return engine


def run_steps(worker, first, last):
    return [worker.query(step, step * STEP) for step in range(first, last + 1)]


def recognised(snapshot):
    return snapshot.n_events, snapshot.occurrences, snapshot.fluents


def flip_a_bit(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def test_fallback_restore_replays_every_later_segment(tmp_path):
    reference = ShardWorker.fresh("ref", tmp_path / "ref", fed_engine(), interval=2)
    worker = ShardWorker.fresh("w", tmp_path / "w", fed_engine(), interval=2)
    run_steps(reference, 1, 5)
    run_steps(worker, 1, 3)
    worker.apply_feed(3, [crowd_event(3 * STEP + 5)])
    reference.apply_feed(3, [crowd_event(3 * STEP + 5)])
    run_steps(worker, 4, 5)
    # Checkpoints at steps 2 and 4; step 5 sits in the segment of the
    # checkpoint about to rot.
    flip_a_bit(tmp_path / "w" / "checkpoint-00000004.ckpt")

    restored = ShardWorker.restore("w", tmp_path / "w", interval=2)
    assert restored.fallbacks == 1
    assert restored.step_index == 5
    assert restored.feed_step == 3
    assert restored.replayed_steps == 3
    counters = restored.metrics.to_dict()["counters"]
    assert counters["recovery.replay.steps"] == 3
    assert counters["recovery.restore.fallbacks"] == 1
    assert recognised(restored.query(6, 6 * STEP)) == recognised(
        reference.query(6, 6 * STEP)
    )
    # The replay re-journalled itself: the live segments hold each
    # step once, the superseded ones were archived.
    journal = restored.coordinator.journal
    begun = [
        record["step"]
        for base in journal.segments_from(0)
        for record in journal.read_segment(base)
        if record["kind"] == "step"
    ]
    assert begun == sorted(set(begun)) and begun[-1] == 6


def test_journal_segments_are_pruned_in_a_shard_directory(tmp_path):
    retain = 3
    worker = ShardWorker.fresh("w", tmp_path, fed_engine(), interval=1)
    assert worker.coordinator.manager.retain == retain
    run_steps(worker, 1, 12)
    checkpoints = sorted(
        int(path.stem.split("-")[1]) for path in tmp_path.glob("*.ckpt")
    )
    assert checkpoints == [0, 10, 11, 12]
    segments = sorted(
        int(path.stem.split("-")[1]) for path in tmp_path.glob("journal-*.wal")
    )
    assert len(segments) <= retain + 1
    assert min(segments) >= checkpoints[1]
    # What is left still restores.
    restored = ShardWorker.restore("w", tmp_path, interval=1)
    assert restored.step_index == 12


def test_worker_refuses_a_step_it_cannot_reach(tmp_path):
    worker = ShardWorker.fresh("w", tmp_path, fed_engine(), interval=2)
    run_steps(worker, 1, 2)
    with pytest.raises(RuntimeError, match="cannot run step 5"):
        worker.query(5, 5 * STEP)
    # The newest completed step is still served from cache.
    assert worker.query(2, 2 * STEP) is worker._last[1]
