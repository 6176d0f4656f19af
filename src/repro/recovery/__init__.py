"""Durable checkpoint/restore for the urban-traffic pipeline.

The paper's system is meant to run continuously over the city's
streams; this package makes the reproduction restartable: a
:class:`CheckpointCoordinator` snapshots the full pipeline object
graph — the engines' working memories (pending items included) and
inertia seeds, recognition-log dedup sets, crowd online-EM ``p_i``
estimates, degradation breaker/timeline state, metrics counters —
every ``SystemConfig.checkpoint_interval`` recognition steps, into
checksummed checkpoints written atomically, alongside a write-ahead
journal of the stream items each step admits.  ``repro run --resume
<dir>`` restores the newest valid checkpoint (falling back over torn
files), replays at most one journal segment, and finishes with output
identical to an uninterrupted run.  See ``docs/recovery.md``.
"""

from .checkpoint import (
    CheckpointError,
    CheckpointInfo,
    CheckpointManager,
    NoValidCheckpoint,
)
from .coordinator import CheckpointCoordinator
from .journal import WriteAheadJournal

__all__ = [
    "CheckpointManager",
    "CheckpointInfo",
    "CheckpointError",
    "NoValidCheckpoint",
    "WriteAheadJournal",
    "CheckpointCoordinator",
]
