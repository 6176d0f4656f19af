"""A shard worker's own durability, driven in-process.

The worker keeps checkpoints only; a restore loads the newest valid
one and catches up from the history the coordinator sends with the
``restore`` message.  These tests pin a restore that falls back over a
corrupt checkpoint and is still caught up to the step before the
in-flight one, a shard directory that holds checkpoint files alone
(retention as in the pipeline's), and the worker's refusal to run a
step it cannot reach.
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
    """Run steps ``first..last`` as the worker loop does: each query,
    then its checkpoint when one is due."""
    snapshots = []
    for step in range(first, last + 1):
        snapshots.append(worker.query(step, step * STEP))
        worker.checkpoint_if_due()
    return snapshots


def recognised(snapshot):
    return snapshot.n_events, snapshot.occurrences, snapshot.fluents


def flip_a_bit(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def test_fallback_restore_catches_up_from_the_coordinator_history(tmp_path):
    feeds = [(3, [crowd_event(3 * STEP + 5)])]
    queries = [(step, step * STEP) for step in range(1, 7)]
    reference = ShardWorker.fresh("ref", tmp_path / "ref", fed_engine(), interval=2)
    worker = ShardWorker.fresh("w", tmp_path / "w", fed_engine(), interval=2)
    for shard in (reference, worker):
        run_steps(shard, 1, 3)
        shard.apply_feed(*feeds[0])
        run_steps(shard, 4, 5)
    # Checkpoints at steps 2 and 4; the one at 4 rots, so the restore
    # falls back to step 2 and must re-run step 3, the feed after it,
    # and steps 4 and 5.  Step 6 is in flight.
    flip_a_bit(tmp_path / "w" / "checkpoint-00000004.ckpt")

    restored = ShardWorker.restore(
        "w", tmp_path / "w", step=6, feeds=feeds, queries=queries, interval=2
    )
    assert restored.step_index == 5
    assert restored.feed_step == 3
    counters = restored.metrics.to_dict()["counters"]
    assert counters["recovery.replay.steps"] == 3
    assert counters["recovery.restore.fallbacks"] == 1
    assert counters["queries"] == 5
    assert recognised(restored.query(6, 6 * STEP)) == recognised(
        reference.query(6, 6 * STEP)
    )


def test_a_shard_directory_holds_checkpoint_files_only(tmp_path):
    worker = ShardWorker.fresh("w", tmp_path, fed_engine(), interval=1)
    retain = worker.manager.retain
    assert retain == 3
    run_steps(worker, 1, 12)
    worker.apply_feed(12, [crowd_event(12 * STEP + 5)])
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        f"checkpoint-{step:08d}.ckpt" for step in (0, 10, 11, 12)
    ]
    # What is left still restores.
    restored = ShardWorker.restore("w", tmp_path, step=13, interval=1)
    assert restored.step_index == 12


def test_worker_refuses_a_step_it_cannot_reach(tmp_path):
    worker = ShardWorker.fresh("w", tmp_path, fed_engine(), interval=2)
    run_steps(worker, 1, 2)
    with pytest.raises(RuntimeError, match="cannot run step 5"):
        worker.query(5, 5 * STEP)
    with pytest.raises(RuntimeError, match="cannot run step 2"):
        worker.query(2, 2 * STEP)
