"""The sharded recognition runtime: per-region workers, supervised.

:class:`ShardedRuntime` is the coordinator side of the deployment the
paper runs on heterogeneous CVM/CNO nodes: each region's engine lives
in its own OS process (:mod:`repro.shard.worker`), fed over the bus
(:mod:`repro.shard.bus`) and supervised across the process boundary
(:mod:`repro.shard.supervisor`).  The pipeline drives it with three
calls per run — :meth:`start` (ship the fed engines out),
:meth:`query_step` once per recognition step, :meth:`publish_feed` for
crowd-sourced SDEs — plus :meth:`shutdown`, which drains the workers
and folds their registries into the run's metrics under
``shard.<region>.*``.

Determinism: results are merged in canonical region order
(:func:`merge_in_region_order`) regardless of which worker finished
first, so an N-shard run is byte-identical to the single-process run.
A worker death at any point — detected by EOF, dead pipe, exit code or
heartbeat silence — triggers restart-from-its-own-checkpoint.  The
coordinator is the only replay source: it keeps every feed batch and
query time it sent, the ``restore`` message carries that history, and
the respawned worker re-runs what came after its checkpoint up to the
step before the in-flight one, then is re-asked the in-flight query,
while sibling shards keep flowing untouched.  A restored worker that
reports any other step fails closed: it counts as a death.
"""

from __future__ import annotations

import multiprocessing
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Sequence, TypeVar

from ..obs import Registry
from .bus import Endpoint, PipeTransport, ShardBus, ShardConnectionLost
from .supervisor import ShardSupervisor
from .worker import shard_worker_main

__all__ = ["ShardedRuntime", "merge_in_region_order"]

T = TypeVar("T")

#: ``multiprocessing`` start method of the workers, their heartbeat
#: cadence, and the seconds of silence (heartbeats included) after
#: which a live-looking worker is declared dead (wall clock).
SHARD_START_METHOD = "fork"
SHARD_HEARTBEAT_S = 0.25
SHARD_LIVENESS_TIMEOUT_S = 30.0
# A worker is only dead after missing heartbeats.
assert SHARD_LIVENESS_TIMEOUT_S > SHARD_HEARTBEAT_S


def merge_in_region_order(
    results: Mapping[str, T], regions: Sequence[str]
) -> list[tuple[str, T]]:
    """Deterministic merge: per-shard results in canonical region order.

    Workers complete in arbitrary order; downstream consumers (alert
    surfacing, crowd arbitration, the report) must see one fixed order
    for byte-identical output.  Regions absent from ``results`` (failed
    shards) are skipped, not filled.
    """
    return [
        (region, results[region]) for region in regions if region in results
    ]


@dataclass
class ShardHandle:
    """Liveness bookkeeping for one worker process."""

    region: str
    process: Any
    endpoint: Endpoint
    last_seen: float = field(default_factory=time.monotonic)


class ShardedRuntime:
    """Spawns, feeds, queries and supervises the per-region workers.

    Parameters
    ----------
    regions:
        Canonical region order (the merge order).
    metrics:
        The run's registry (supervisor counters land here directly;
        worker registries merge in at shutdown under
        ``shard.<region>.*``).
    checkpoint_interval:
        Per-shard checkpoint cadence in recognition steps.
    directory:
        Root for the per-shard recovery directories
        (``shard-<region>/``); a temporary directory (cleaned up at
        shutdown) when ``None``.
    max_restarts / backoff_base_s:
        Supervision tuning (see :class:`ShardSupervisor`).
    degradation:
        Optional degradation manager told about failed regions.
    crash_plans:
        ``region -> [CrashInjector, ...]`` — consumed one per process
        spawn (first injector arms the initial worker, the next arms
        its first restart, ...), letting chaos tests script SIGKILLs
        across restarts.
    """

    def __init__(
        self,
        regions: Sequence[str],
        *,
        metrics: Registry,
        checkpoint_interval: int = 10,
        directory=None,
        max_restarts: int = 3,
        backoff_base_s: float = 0.05,
        degradation=None,
        crash_plans: Optional[Mapping[str, Iterable]] = None,
    ):
        self.regions = list(regions)
        self.metrics = metrics
        self.checkpoint_interval = checkpoint_interval
        self._context = multiprocessing.get_context(SHARD_START_METHOD)
        self.bus = ShardBus(PipeTransport(self._context))
        self.supervisor = ShardSupervisor(
            max_restarts=max_restarts,
            backoff_base_s=backoff_base_s,
            liveness_timeout_s=SHARD_LIVENESS_TIMEOUT_S,
            metrics=metrics,
            degradation=degradation,
        )
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        if directory is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-shards-")
            directory = self._tmp.name
        self.directory = Path(directory)
        self.handles: dict[str, ShardHandle] = {}
        self._crash_plans = {
            region: list(plans)
            for region, plans in (crash_plans or {}).items()
        }
        #: Every published feed batch and every query sent, in order:
        #: what a restarted worker is caught up from.
        self._feed_history: list[tuple[int, list]] = []
        self._query_history: list[tuple[int, int]] = []
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    def start(self, engines: Mapping[str, Any]) -> None:
        """Spawn one worker per region and ship it its fed engine.

        Startup is fail-fast: a worker that cannot initialise aborts
        the run (there is no checkpoint to restart it from yet).
        """
        for region in self.regions:
            self._spawn(region, "init", engine=engines[region])
        for region in self.regions:
            try:
                self._await_ready(region)
            except ShardConnectionLost as error:
                raise RuntimeError(
                    f"shard {region!r} failed to start: {error}"
                ) from error

    def _spawn(self, region: str, kind: str, **payload: Any) -> None:
        """Start a worker process and send it ``init`` or ``restore``."""
        crash = None
        plans = self._crash_plans.get(region)
        if plans:
            crash = plans.pop(0)
        worker_end = self.bus.open_channel(region)
        process = self._context.Process(
            target=shard_worker_main,
            args=(
                region,
                str(self.directory / f"shard-{region}"),
                worker_end,
                SHARD_HEARTBEAT_S,
            ),
            name=f"repro-shard-{region}",
            daemon=True,
        )
        process.start()
        worker_end.close()
        self.handles[region] = ShardHandle(
            region, process, self.bus.endpoint(region)
        )
        self.bus.send(
            region,
            kind,
            interval=self.checkpoint_interval,
            crash=crash,
            **payload,
        )

    def _reap(self, region: str) -> None:
        """Tear down a (presumed dead) worker process and its channel."""
        handle = self.handles.pop(region, None)
        if handle is None:
            return
        if handle.process.is_alive():
            handle.process.kill()
        handle.process.join(timeout=5.0)
        self.bus.detach(region)

    # -- receive loop --------------------------------------------------
    def _await(self, region: str, *, timeout: Optional[float] = None):
        """Next non-heartbeat message from ``region``.

        Raises :class:`ShardConnectionLost` when the worker reports an
        error, hits EOF, or stays silent past the liveness timeout —
        one signal for every flavour of death.
        """
        handle = self.handles[region]
        deadline = self.supervisor.liveness_timeout_s
        if timeout is not None:
            deadline = timeout
        while True:
            if handle.endpoint.poll(min(SHARD_HEARTBEAT_S, 0.05)):
                kind, payload = handle.endpoint.recv()
                age = time.monotonic() - handle.last_seen
                handle.last_seen = time.monotonic()
                if kind == "heartbeat":
                    continue
                self.supervisor.observe_heartbeat_age(region, age)
                if kind == "error":
                    raise ShardConnectionLost(
                        f"worker error: {payload['error']}"
                    )
                return kind, payload
            silent_for = time.monotonic() - handle.last_seen
            if silent_for > deadline:
                raise ShardConnectionLost(
                    f"no heartbeat for {silent_for:.1f}s "
                    f"(liveness timeout {deadline:g}s)"
                )
            exitcode = handle.process.exitcode
            if exitcode is not None and not handle.endpoint.poll(0):
                raise ShardConnectionLost(
                    f"worker exited with code {exitcode}"
                )

    def _await_ready(self, region: str) -> dict:
        kind, payload = self._await(region)
        if kind != "ready":
            raise ShardConnectionLost(
                f"expected ready from shard {region!r}, got {kind!r}"
            )
        return payload

    # -- feed path -----------------------------------------------------
    def publish_feed(self, step: int, sdes: Sequence[Any]) -> None:
        """Fan one batch of SDEs (crowd feedback) out to all live
        shards; the batch is retained for restart catch-up.

        A send to an already-dead worker is dropped here and counted
        (``shard.feed.dropped_sends``): the death is handled at the
        next query, and the restarted worker is caught up with the
        batch from the retained history.
        """
        batch = list(sdes)
        if not batch:
            return
        self._feed_history.append((step, batch))
        for region in self.regions:
            if self.supervisor.is_failed(region) or region not in self.handles:
                continue
            try:
                self.bus.send(region, "feed", step=step, sdes=batch)
            except ShardConnectionLost:
                self.metrics.counter("shard.feed.dropped_sends").inc()

    # -- query path ----------------------------------------------------
    def query_step(self, step: int, q: int) -> dict[str, Any]:
        """Run recognition step ``step`` on every live shard.

        Returns region -> snapshot in canonical region order; regions
        whose restart budget is exhausted are absent.  A worker death
        mid-step triggers restart-from-checkpoint and a re-request of
        this same step, so one step's results are always complete for
        every non-failed region.
        """
        live = [
            region
            for region in self.regions
            if not self.supervisor.is_failed(region)
        ]
        self._query_history.append((step, q))
        send_failures: dict[str, ShardConnectionLost] = {}
        for region in live:
            try:
                self.bus.send(region, "query", step=step, q=q)
            except ShardConnectionLost as error:
                send_failures[region] = error
        snapshots: dict[str, Any] = {}
        for region in live:
            snapshot = self._collect(
                region, step, q, initial_failure=send_failures.get(region)
            )
            if snapshot is not None:
                snapshots[region] = snapshot
        return dict(merge_in_region_order(snapshots, self.regions))

    def _collect(
        self,
        region: str,
        step: int,
        q: int,
        *,
        initial_failure: Optional[ShardConnectionLost] = None,
    ):
        """One region's snapshot for ``step``, restarting through
        worker deaths until it arrives or the budget is spent."""
        failure = initial_failure
        while True:
            if failure is not None:
                if not self._restart(region, step, q, str(failure)):
                    return None
                failure = None
                try:
                    self.bus.send(region, "query", step=step, q=q)
                except ShardConnectionLost as error:
                    failure = error
                    continue
            try:
                kind, payload = self._await(region)
                if kind != "snapshot":
                    failure = ShardConnectionLost(
                        f"expected snapshot, got {kind!r}"
                    )
                    continue
                return payload["snapshot"]
            except ShardConnectionLost as error:
                failure = error

    def _restart(
        self, region: str, step: int, q: int, reason: str
    ) -> bool:
        """Restart a dead worker from its own checkpoint, caught up to
        the step before ``step``.

        Returns ``False`` once the restart budget is exhausted (the
        supervisor has declared the region failed and forced it into
        the degradation timeline).  A restored worker whose ``ready``
        reports any other step than ``step - 1`` counts as a death.
        """
        while True:
            self._reap(region)
            if not self.supervisor.record_death(region, step, q, reason):
                return False
            time.sleep(self.supervisor.backoff_s(region))
            try:
                self._spawn(
                    region,
                    "restore",
                    step=step,
                    feeds=self._feed_history,
                    queries=self._query_history,
                )
                restored = int(self._await_ready(region)["step"])
            except ShardConnectionLost as error:
                reason = str(error)
                continue
            if restored != step - 1:
                reason = (
                    f"restored to step {restored}, coordinator at step {step}"
                )
                continue
            self.supervisor.record_restart(region, step, q)
            return True

    # -- teardown ------------------------------------------------------
    def shutdown(self) -> list[dict]:
        """Drain the workers, fold their metrics in, release resources.

        Robust by construction: a worker that will not answer the
        shutdown handshake is killed (and counted,
        ``shard.shutdown.unanswered``), so this doubles as the abort
        path after an exception.  Returns the supervisor's restart/failure
        event list (chronological).
        """
        if self._closed:
            return list(self.supervisor.events)
        self._closed = True
        summaries: dict[str, dict] = {}
        for region in self.regions:
            if region not in self.handles:
                continue
            if not self.supervisor.is_failed(region):
                try:
                    self.bus.send(region, "shutdown")
                    while True:
                        kind, payload = self._await(region, timeout=10.0)
                        if kind == "bye":
                            summaries[region] = payload["metrics"]
                            break
                except ShardConnectionLost:
                    self.metrics.counter("shard.shutdown.unanswered").inc()
            self._reap(region)
        self.bus.close()
        self.supervisor.record_breaker_states()
        for region, exported in summaries.items():
            self.metrics.merge(
                Registry.from_dict(exported), prefix=f"shard.{region}."
            )
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None
        return list(self.supervisor.events)
