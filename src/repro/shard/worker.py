"""The shard worker: one region's recognition engine in its own process.

:func:`shard_worker_main` is the child-process entry point.  It serves
the bus protocol in a loop — ``init`` (adopt a freshly fed engine and
write the step-0 baseline checkpoint), ``restore`` (come back from this
shard's newest valid checkpoint and catch up from the history the
coordinator sends with it), ``feed`` (ingest crowd SDEs), ``query``
(run one recognition step, send its snapshot, then checkpoint when the
interval is due) and ``shutdown`` (return the worker's metrics).  A
daemon thread heartbeats over the same channel so the supervisor can
tell a slow worker from a dead one.

Durability is checkpoints only, written by a
:class:`~repro.recovery.checkpoint.CheckpointManager` into the shard's
private directory (``shard-<region>/``).  The worker keeps no journal:
the coordinator already holds every feed batch and query time it sent,
so a restored worker is caught up from that history.  A checkpoint
pickles the fed engine wholesale (a quarter-city engine is small
enough), so a restore never needs the scenario generator.

Determinism contract: the engine is fed and queried in exactly the
order the single-process pipeline would use, and a caught-up query
re-executes ``engine.query(q)`` on the restored engine — the RTEC
engine is deterministic, so the re-derived state (and the
re-incremented counters, which resume from the checkpointed registry)
are identical to the lost originals.  A checkpoint is written only
after its step's snapshot has been sent, so a restored worker is never
at the step the coordinator is about to re-request.
"""

from __future__ import annotations

import threading
import time
import traceback
from functools import partial
from typing import Optional, Sequence

from ..core.events import FluentFact
from ..core.rtec import RTEC, RecognitionSnapshot
from ..obs import Registry
from ..recovery.checkpoint import CheckpointManager
from .bus import Endpoint, ShardConnectionLost

__all__ = ["ShardWorker", "shard_worker_main"]


class ShardWorker:
    """One region's engine plus the checkpoints of its directory."""

    def __init__(
        self,
        region: str,
        manager: CheckpointManager,
        engine: RTEC,
        metrics: Registry,
        *,
        interval: int = 10,
        crash=None,
        step_index: int = 0,
        feed_step: int = 0,
    ):
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.region = region
        self.manager = manager
        self.engine = engine
        #: This worker's registry, restored with it; the ``recovery.*``
        #: series land here too.
        self.metrics = metrics
        self.interval = interval
        #: Optional :class:`repro.faults.CrashInjector`, consulted at
        #: the start of every step and during checkpoint writes.
        self.crash = crash
        #: Last completed recognition step (0 before the first query).
        self.step_index = step_index
        #: Step of the newest feed batch ingested.
        self.feed_step = feed_step

    # ------------------------------------------------------------------
    @classmethod
    def fresh(
        cls, region: str, directory, engine: RTEC, *, interval: int = 10,
        crash=None,
    ) -> "ShardWorker":
        """Adopt a freshly fed engine and write the baseline checkpoint."""
        worker = cls(
            region, CheckpointManager(directory), engine, Registry(),
            interval=interval, crash=crash,
        )
        worker.checkpoint()
        return worker

    @classmethod
    def restore(
        cls,
        region: str,
        directory,
        *,
        step: int,
        feeds: Sequence[tuple[int, list]] = (),
        queries: Sequence[tuple[int, int]] = (),
        interval: int = 10,
        crash=None,
    ) -> "ShardWorker":
        """Restore from this shard's newest valid checkpoint and catch
        up to the step before ``step``, the one in flight.

        ``feeds`` (``(step, batch)``) and ``queries`` (``(step, q)``)
        are the coordinator's history of what it sent, in order.

        Raises :class:`~repro.recovery.checkpoint.NoValidCheckpoint`
        when the directory holds no restorable state.
        """
        manager = CheckpointManager(directory)
        payload, _, fallbacks = manager.load_latest()
        state = payload["worker"]
        worker = cls(
            region,
            manager,
            state["engine"],
            Registry.from_dict(state["metrics"]),
            interval=interval,
            crash=crash,
            step_index=int(state["step_index"]),
            feed_step=int(state["feed_step"]),
        )
        worker.metrics.counter("recovery.restore.count").inc()
        worker.metrics.counter("recovery.restore.fallbacks").inc(fallbacks)
        worker.catch_up(step - 1, feeds, queries)
        return worker

    def catch_up(
        self,
        until: int,
        feeds: Sequence[tuple[int, list]],
        queries: Sequence[tuple[int, int]],
    ) -> None:
        """Re-run, in the order they were first sent, the feed batches
        after ``feed_step`` and the queries after ``step_index``, up to
        step ``until``.

        A feed batch of step *n* was published after query *n* and
        before query *n* + 1.  Caught-up steps checkpoint as live ones
        do; they send nothing.
        """
        batches = [
            (step, batch) for step, batch in feeds
            if self.feed_step < step <= until
        ]
        replayed = 0
        for step, q in queries:
            if step > until:
                break
            while batches and batches[0][0] < step:
                self.apply_feed(*batches.pop(0))
            if step > self.step_index:
                self.query(step, q)
                self.checkpoint_if_due()
                replayed += 1
        for batch in batches:
            self.apply_feed(*batch)
        self.metrics.counter("recovery.replay.steps").inc(replayed)

    def state_payload(self) -> dict:
        """The checkpoint payload: the whole worker state, pickled as-is
        (no streamless rebuild — a quarter-city engine is small)."""
        return {
            "worker": {
                "region": self.region,
                "engine": self.engine,
                "metrics": self.metrics.to_dict(),
                "step_index": self.step_index,
                "feed_step": self.feed_step,
            }
        }

    # ------------------------------------------------------------------
    def query(self, step: int, q: int) -> RecognitionSnapshot:
        """Run recognition step ``step`` at query time ``q``."""
        if step != self.step_index + 1:
            # Fail closed: querying here would silently skip the steps
            # in between.
            raise RuntimeError(
                f"shard {self.region!r} is at step {self.step_index} and "
                f"cannot run step {step}: the steps between were lost"
            )
        if self.crash is not None:
            self.crash.before_step(step)
        snapshot = self.engine.query(q)
        self.metrics.counter("queries").inc()
        self.step_index = step
        return snapshot

    def apply_feed(self, step: int, sdes) -> None:
        """Ingest one feed batch."""
        events = [s for s in sdes if not isinstance(s, FluentFact)]
        facts = [s for s in sdes if isinstance(s, FluentFact)]
        self.engine.feed(events=events, facts=facts)
        self.metrics.counter("feed.events").inc(len(sdes))
        self.feed_step = step

    def checkpoint_if_due(self) -> None:
        """Checkpoint every ``interval`` steps (the baseline is step 0,
        so a restored worker keeps the cadence)."""
        if self.step_index % self.interval == 0:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Write the checkpoint of the current step."""
        step = self.step_index
        pre_replace = None
        if self.crash is not None:
            pre_replace = partial(self.crash.on_checkpoint_write, step)
        started = time.perf_counter()
        info = self.manager.save(
            step, self.state_payload(), pre_replace=pre_replace
        )
        self.metrics.timing("recovery.checkpoint.seconds").observe(
            time.perf_counter() - started
        )
        self.metrics.counter("recovery.checkpoint.writes").inc()
        self.metrics.counter("recovery.checkpoint.bytes").inc(info.size)


def shard_worker_main(
    region: str,
    directory: str,
    endpoint: Endpoint,
    heartbeat_s: float,
) -> int:
    """Child-process entry point: serve the bus protocol until EOF.

    Unexpected exceptions are reported upstream as an ``error`` message
    before exiting, so the supervisor sees the cause instead of a bare
    dead pipe; a SIGKILL (real or injected) skips all of this, which is
    exactly the signal path the liveness timeout and EOF detection
    cover.
    """
    send_lock = threading.Lock()

    def send(kind: str, payload: dict) -> None:
        with send_lock:
            endpoint.send((kind, payload))

    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(heartbeat_s):
            try:
                send("heartbeat", {"at": time.monotonic()})
            except ShardConnectionLost:
                return

    heartbeat = threading.Thread(
        target=beat, name=f"shard-{region}-heartbeat", daemon=True
    )
    heartbeat.start()

    worker: Optional[ShardWorker] = None
    try:
        while True:
            kind, payload = endpoint.recv()
            if kind == "init":
                worker = ShardWorker.fresh(region, directory, **payload)
                send("ready", {"step": worker.step_index})
            elif kind == "restore":
                worker = ShardWorker.restore(region, directory, **payload)
                send("ready", {"step": worker.step_index})
            elif kind == "feed":
                assert worker is not None, "feed before init"
                worker.apply_feed(payload["step"], payload["sdes"])
            elif kind == "query":
                assert worker is not None, "query before init"
                snapshot = worker.query(payload["step"], payload["q"])
                send(
                    "snapshot",
                    {"step": payload["step"], "snapshot": snapshot},
                )
                worker.checkpoint_if_due()
            elif kind == "shutdown":
                metrics = {} if worker is None else worker.metrics.to_dict()
                send("bye", {"metrics": metrics})
                return 0
            else:
                raise ValueError(f"unknown bus message kind {kind!r}")
    except ShardConnectionLost:
        return 1  # coordinator went away; nothing to report to
    except BaseException as error:  # noqa: BLE001 — forwarded upstream
        try:
            send(
                "error",
                {
                    "error": f"{type(error).__name__}: {error}",
                    "traceback": traceback.format_exc(),
                },
            )
        except ShardConnectionLost:
            pass
        return 1
    finally:
        stop.set()
        endpoint.close()
