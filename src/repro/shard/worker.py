"""The shard worker: one region's recognition engine in its own process.

:func:`shard_worker_main` is the child-process entry point.  It serves
the bus protocol in a loop — ``init`` (adopt a freshly fed engine and
write the step-0 baseline checkpoint), ``restore`` (come back from this
shard's own checkpoint directory, replaying the journal after it),
``feed`` (journal then ingest crowd SDEs), ``query`` (run one
recognition step under the begin/commit journal protocol) and
``shutdown`` (journal a clean end and return the worker's metrics).  A
daemon thread heartbeats over the same channel so the supervisor can
tell a slow worker from a dead one.

Durability is the pipeline's own
:class:`~repro.recovery.coordinator.CheckpointCoordinator` over the
shard's private directory (``shard-<region>/``), scoped to this
worker's engine.  There is no streamless mode here: a shard checkpoint
pickles the fed engine wholesale (a quarter-city engine is small
enough), so a restore never needs the scenario generator.

Determinism contract: the engine is fed and queried in exactly the
order the single-process pipeline would use, and a replayed query
re-executes ``engine.query(q)`` on the restored engine — the RTEC
engine is deterministic, so the re-derived snapshot (and the
re-incremented counters, which resume from the checkpointed registry)
are identical to the lost originals.  The latest snapshot is kept in
``_last`` so the coordinator's re-request of an in-flight step is
served from cache instead of executing twice.
"""

from __future__ import annotations

import threading
import time
import traceback
from typing import Optional

from ..core.events import Event, FluentFact
from ..core.rtec import RTEC, RecognitionSnapshot
from ..dublin.dataset import (
    event_to_item,
    fact_to_item,
    item_to_event,
    item_to_fact,
)
from ..obs import Registry
from ..recovery.coordinator import CheckpointCoordinator
from .bus import Endpoint, ShardConnectionLost

__all__ = ["ShardWorker", "shard_worker_main", "encode_sdes", "decode_sdes"]


def encode_sdes(sdes) -> list[dict]:
    """SDEs (events or fluent facts) as JSON-able dataset items."""
    return [
        fact_to_item(sde) if isinstance(sde, FluentFact)
        else event_to_item(sde)
        for sde in sdes
    ]


def decode_sdes(items) -> tuple[list[Event], list[FluentFact]]:
    """Dataset items back to ``(events, facts)``."""
    events: list[Event] = []
    facts: list[FluentFact] = []
    for item in items:
        if str(item.get("@type", "")).startswith("fluent:"):
            facts.append(item_to_fact(item))
        else:
            events.append(item_to_event(item))
    return events, facts


class ShardWorker:
    """One region's engine plus its private recovery coordinator."""

    def __init__(
        self,
        region: str,
        coordinator: CheckpointCoordinator,
        engine: RTEC,
        metrics: Registry,
        *,
        step_index: int = 0,
        feed_step: int = 0,
    ):
        self.region = region
        self.coordinator = coordinator
        self.engine = engine
        #: This worker's registry, restored with it; the coordinator's
        #: ``recovery.*`` series land here too.
        self.metrics = coordinator.metrics = metrics
        #: Last completed recognition step (0 before the first query).
        self.step_index = step_index
        #: Step of the newest feed batch journalled and ingested.
        self.feed_step = feed_step
        self.replayed_steps = 0
        self.fallbacks = 0
        self._last: Optional[tuple[int, RecognitionSnapshot]] = None

    # ------------------------------------------------------------------
    @classmethod
    def fresh(
        cls,
        region: str,
        directory,
        engine: RTEC,
        *,
        interval: int = 10,
        crash=None,
    ) -> "ShardWorker":
        """Adopt a freshly fed engine and write the baseline checkpoint."""
        coordinator = CheckpointCoordinator(
            directory, interval=interval, crash=crash
        )
        worker = cls(region, coordinator, engine, Registry())
        coordinator.checkpoint(0, worker.state_payload())
        return worker

    @classmethod
    def restore(
        cls, region: str, directory, *, interval: int = 10, crash=None
    ) -> "ShardWorker":
        """Restore from this shard's newest valid checkpoint and replay
        the journal written after it (one segment, unless the restore
        fell back over a corrupt newer checkpoint)."""
        coordinator = CheckpointCoordinator(
            directory, interval=interval, crash=crash
        )
        payload, records, fallbacks = coordinator.restore()
        state = payload["worker"]
        worker = cls(
            region,
            coordinator,
            state["engine"],
            Registry.from_dict(state["metrics"]),
            step_index=int(state["step_index"]),
            feed_step=int(state["feed_step"]),
        )
        worker.fallbacks = fallbacks
        worker.metrics.counter("recovery.restore.count").inc()
        worker.metrics.counter("recovery.restore.fallbacks").inc(fallbacks)
        worker._replay(records)
        return worker

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

    def ready_info(self) -> dict:
        """The handshake payload the coordinator resyncs from."""
        return {
            "region": self.region,
            "step": self.step_index,
            "feed_step": self.feed_step,
            "replayed_steps": self.replayed_steps,
            "fallbacks": self.fallbacks,
        }

    # ------------------------------------------------------------------
    def query(self, step: int, q: int) -> RecognitionSnapshot:
        """Run recognition step ``step`` at query time ``q``.

        A re-request of the newest completed step (the coordinator
        re-asks after restarting this worker) is served from cache.
        """
        if self._last is not None and self._last[0] == step:
            return self._last[1]
        if step != self.step_index + 1:
            # Fail closed: querying here would silently skip the steps
            # in between (a journal that lost segments to pruning or a
            # second crash mid-replay cannot bring the engine up to
            # the step the coordinator is at).
            raise RuntimeError(
                f"shard {self.region!r} is at step {self.step_index} and "
                f"cannot run step {step}: the steps between were lost"
            )
        # The worker sees no stream arrivals and produces no crowd
        # SDEs: those two fields of the protocol are the pipeline's.
        self.coordinator.begin_step(step, q, {})
        snapshot = self.engine.query(q)
        self._record(snapshot)
        self.coordinator.commit_step(step, 0)
        self.step_index = step
        self._last = (step, snapshot)
        if self.coordinator.due(step):
            self.coordinator.checkpoint(step, self.state_payload())
        return snapshot

    def apply_feed(self, step: int, sdes) -> None:
        """Journal (write-ahead) then ingest one feed batch."""
        self.coordinator.journal_feed(step, encode_sdes(sdes))
        events = [s for s in sdes if not isinstance(s, FluentFact)]
        facts = [s for s in sdes if isinstance(s, FluentFact)]
        self.engine.feed(events=events, facts=facts)
        self.metrics.counter("feed.events").inc(len(sdes))
        self.feed_step = step

    def _record(self, snapshot: RecognitionSnapshot) -> None:
        self.metrics.counter("queries").inc()
        self.metrics.counter("items").inc(snapshot.n_new_events)
        self.metrics.timing("query.seconds").observe(snapshot.elapsed)
        snapshot.record_counters(self.metrics)

    def _replay(self, records) -> None:
        """Re-drive the journalled work since the restored checkpoint.

        Feeds re-ingest and committed steps re-execute, re-journalling
        themselves into the fresh segment so a second crash still
        replays cleanly; a trailing uncommitted ``step`` record — the
        query the worker died inside — is left to the coordinator,
        which re-requests it.
        """
        pending: Optional[tuple[int, int]] = None
        for record in records:
            kind = record.get("kind")
            if kind == "feed":
                events, facts = decode_sdes(record["events"])
                self.apply_feed(int(record["step"]), events + facts)
            elif kind == "step":
                pending = (int(record["step"]), int(record["q"]))
            elif kind == "commit":
                if pending is None:
                    continue  # commit without step: skip defensively
                self.query(*pending)
                self.replayed_steps += 1
                pending = None
            # "complete" cannot trail a crash — ignore anything else.
        self.metrics.counter("recovery.replay.steps").inc(
            self.replayed_steps
        )

    def close(self, *, final_step: Optional[int] = None) -> None:
        """Journal a clean end of run."""
        self.coordinator.complete(
            self.step_index if final_step is None else final_step
        )


def shard_worker_main(
    region: str,
    directory: str,
    endpoint: Endpoint,
    heartbeat_s: float = 0.25,
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
                worker = ShardWorker.fresh(
                    region,
                    directory,
                    payload["engine"],
                    interval=payload.get("interval") or 10,
                    crash=payload.get("crash"),
                )
                send("ready", worker.ready_info())
            elif kind == "restore":
                worker = ShardWorker.restore(
                    region,
                    directory,
                    interval=payload.get("interval") or 10,
                    crash=payload.get("crash"),
                )
                send("ready", worker.ready_info())
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
            elif kind == "shutdown":
                if worker is not None:
                    worker.close(final_step=payload.get("step"))
                    send("bye", {"metrics": worker.metrics.to_dict()})
                else:
                    send("bye", {"metrics": {}})
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
