"""Sharded multi-process recognition runtime.

Per-region recognition workers as separate OS processes
(:mod:`~repro.shard.worker`) fed over an abstracted message bus
(:mod:`~repro.shard.bus`), answering each query with a snapshot delta
(:mod:`~repro.shard.delta`), each checkpointing its engine into its own
directory and caught up after a restart from the coordinator's history
of what it sent, supervised across process
boundaries with heartbeats, liveness timeouts and restart budgets
(:mod:`~repro.shard.supervisor`), coordinated deterministically so an
N-worker run is byte-identical to single-process output
(:mod:`~repro.shard.runtime`).
"""

from .bus import (
    Endpoint,
    PipeEndpoint,
    PipeTransport,
    ShardBus,
    ShardConnectionLost,
    Transport,
)
from .runtime import ShardedRuntime, merge_in_region_order
from .supervisor import ShardSupervisor
from .worker import ShardWorker, shard_worker_main

__all__ = [
    "Endpoint",
    "PipeEndpoint",
    "PipeTransport",
    "ShardBus",
    "ShardConnectionLost",
    "Transport",
    "ShardedRuntime",
    "merge_in_region_order",
    "ShardSupervisor",
    "ShardWorker",
    "shard_worker_main",
]
