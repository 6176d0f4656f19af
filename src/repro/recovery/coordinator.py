"""The checkpoint coordinator: one durability protocol per directory.

:class:`CheckpointCoordinator` owns one recovery directory — checksummed
checkpoint files plus a write-ahead journal with one segment per
checkpoint — and is the only implementation of the protocol over them:
journal timing, the checkpoint write with its crash seams, segment
rotation and pruning, and restore.  Its one driver is the pipeline
(:meth:`repro.system.pipeline.UrbanTrafficSystem.run` with
``recovery=``), through the lifecycle methods below, which snapshot
the whole system.  (A shard worker keeps checkpoints only, through a
:class:`~.checkpoint.CheckpointManager`: its coordinator holds the
history a restarted worker is caught up from.)

The journal records three kinds, each written *before* the work it
describes::

    {"kind": "step",   "step": n, "q": t, "arrivals": {feed: count}}
    {"kind": "commit", "step": n, "crowd_events": k}
    {"kind": "complete", "step": n}

A ``step`` without its ``commit`` marks the step the process died in.

The pipeline lifecycle:

* ``on_run_start`` writes a baseline checkpoint (step 0) *before the
  input stream is generated*, so a crash at *any* later point has
  something to restore.  The pre-generation timing keeps the baseline
  small and fast — no pending SDEs to serialise — and is safe because
  generation is deterministic: the snapshot captures the scenario's
  RNG state and a metrics registry that has not yet counted the
  generation, so a baseline restore simply re-runs ``run()`` and
  every generation-time increment happens exactly once;
* ``begin_step`` journals a write-ahead record of the step about to
  run (its query time and per-feed admitted-item counts);
* ``commit_step`` journals the step's completion;
* ``after_step`` snapshots the pipeline every ``checkpoint_interval``
  steps and rotates the journal to a fresh segment, so recovery
  normally replays one segment.  The run's recognition snapshots are
  not in that checkpoint: the ones since the previous checkpoint are
  appended to the *snapshot log* (``snapshots.log``, a
  :class:`~.checkpoint.SnapshotLog`) first, and the checkpoint carries
  the log's length, ``log_end`` — state plus a cursor, so a write
  costs what changes, not the run so far;
* ``restore_latest`` loads the newest checkpoint whose file *and*
  snapshot-log prefix validate (falling back over torn files and
  damaged frames), refills the recognition logs from the frames below
  its ``log_end``, cuts the log back there, accounts the steps to be
  replayed in the ``recovery.replay.*`` counters, and returns the
  revived system.

The coordinator only *observes* the run — checkpointing never mutates
pipeline state, so a run with checkpointing enabled produces exactly
the output of one without (asserted by the crash-parity tests).

Exactly-once accounting falls out of the snapshot's scope: metrics
counters, recognition-log dedup sets and crowd estimates are all part
of the checkpointed object graph, so a replayed step re-applies its
increments *from the checkpointed values* — the resumed totals equal
an uninterrupted run's, and already-emitted CE intervals are
deduplicated by the restored logs.
"""

from __future__ import annotations

import time
from typing import Any, Mapping, Optional

from ..core.window import streamless_checkpoint
from ..obs import Registry
from .checkpoint import (
    CheckpointError,
    CheckpointInfo,
    CheckpointManager,
    SnapshotLog,
)
from .journal import WriteAheadJournal

__all__ = ["CheckpointCoordinator"]


class CheckpointCoordinator:
    """Durability sidecar for one recovery directory.

    Parameters
    ----------
    directory:
        Where checkpoints and journal segments live.  One directory per
        logical run; resuming reads and continues the same directory.
    interval:
        Checkpoint every this many recognition steps.  ``None`` (the
        default) adopts ``SystemConfig.checkpoint_interval`` from the
        system the coordinator is attached to.
    retain:
        Checkpoints kept on disk (see :class:`CheckpointManager`).
    crash:
        Optional :class:`repro.faults.CrashInjector` consulted at the
        start of every step and during checkpoint writes.

    ``metrics`` — the registry of the ``recovery.*`` series — is an
    attribute, not a parameter: a restored registry lives inside the
    checkpoint, so it can only be attached once that is loaded.
    """

    def __init__(
        self,
        directory,
        *,
        interval: Optional[int] = None,
        retain: int = 3,
        crash=None,
    ):
        if interval is not None and interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.manager = CheckpointManager(directory, retain=retain)
        self.journal = WriteAheadJournal(directory)
        #: The pipeline's recognition snapshots, one frame per interval
        #: checkpoint (see :meth:`checkpoint`).
        self.snapshot_log = SnapshotLog(
            self.manager.directory / "snapshots.log"
        )
        self.interval = interval
        self.crash = crash
        self.metrics: Optional[Registry] = None
        self.last_checkpoint: Optional[CheckpointInfo] = None
        #: ``(start, end)`` of the run a restored *baseline* checkpoint
        #: belongs to (set by :meth:`restore_latest`; ``None`` when the
        #: restored checkpoint carries a mid-run state instead).
        self.restored_span: Optional[tuple[int, int]] = None
        self._base_step = 0
        self._resumed = False
        #: Per engine key, how many of its log's snapshots the snapshot
        #: log holds.
        self._logged: dict[str, int] = {}

    # ------------------------------------------------------------------
    def _count(self, name: str, amount: float = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _journal(self, record) -> None:
        """Append one journal record, timed under
        ``recovery.journal.seconds`` — together with
        ``recovery.checkpoint.seconds`` this accounts the full direct
        cost of durability (what the overhead benchmark gates on)."""
        started = time.perf_counter()
        self.journal.append(record)
        if self.metrics is not None:
            self.metrics.timing("recovery.journal.seconds").observe(
                time.perf_counter() - started
            )
        self._count("recovery.journal.records")

    # -- the protocol --------------------------------------------------
    def begin_step(self, step: int, q: int, arrivals: Mapping[str, int]) -> None:
        """Write-ahead record for the step about to execute (and the
        crash injector's mid-step shot)."""
        if self.crash is not None:
            self.crash.before_step(step)
        self._journal(
            {
                "kind": "step",
                "step": step,
                "q": q,
                "arrivals": dict(arrivals),
            }
        )

    def commit_step(self, step: int, crowd_events: int) -> None:
        """Completion record for a finished step."""
        self._journal(
            {"kind": "commit", "step": step, "crowd_events": crowd_events}
        )

    def checkpoint(
        self,
        step: int,
        payload: Any,
        *,
        logs: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Write the checkpoint for ``step`` and rotate the journal.

        ``logs`` — the run's ``{engine key: RecognitionLog}`` — makes
        it a pipeline interval checkpoint.  The snapshots the logs
        gained since the previous one are appended to the snapshot log
        first, as one frame, and ``payload["log_end"]`` becomes the
        log's length after it.  The payload is then pickled inside
        :func:`repro.core.window.streamless_checkpoint`, which leaves
        out the regenerable pending stream and each log's snapshots (a
        count stays); :meth:`restore_latest` puts both back.  The
        append is timed with the write, under
        ``recovery.checkpoint.seconds``.
        """
        pre_replace = None
        if self.crash is not None:
            crash = self.crash

            def pre_replace(path, data):
                crash.on_checkpoint_write(step, path, data)

        started = time.perf_counter()
        if logs is None:
            info = self.manager.save(step, payload, pre_replace=pre_replace)
        else:
            payload["log_end"] = self._append_snapshots(logs)
            with streamless_checkpoint():
                info = self.manager.save(
                    step, payload, pre_replace=pre_replace
                )
        elapsed = time.perf_counter() - started
        self.last_checkpoint = info
        self._base_step = step
        self.journal.open(step)
        # Segments below the oldest *mid-run* checkpoint can never be
        # replayed again (the always-retained baseline only ever needs
        # the segments a restore re-opens for it).
        remaining = [i for i in self.manager.list() if i.step != 0]
        if remaining:
            self.journal.prune(remaining[0].step)
        self._count("recovery.checkpoint.writes")
        self._count("recovery.checkpoint.bytes", info.size)
        if self.metrics is not None:
            self.metrics.timing("recovery.checkpoint.seconds").observe(
                elapsed
            )

    def _append_snapshots(self, logs: Mapping[str, Any]) -> int:
        """Append the snapshots ``logs`` gained since the last append
        as one frame (flushed and fsynced); return the snapshot log's
        new length."""
        end, size = self.snapshot_log.append(
            {
                key: log.snapshots[self._logged.get(key, 0):]
                for key, log in logs.items()
            }
        )
        self._logged = {key: len(log.snapshots) for key, log in logs.items()}
        self._count("recovery.log.frames")
        self._count("recovery.log.bytes", size)
        return end

    # -- pipeline lifecycle --------------------------------------------
    def _attach(self, system) -> None:
        self.metrics = system.metrics
        if self.interval is None:
            self.interval = system.config.checkpoint_interval

    def on_run_start(self, system, span: tuple[int, int]) -> None:
        """Baseline checkpoint + first journal segment, and an empty
        snapshot log (fresh runs); resumed runs already restored their
        baseline.

        Called by the pipeline *before* it generates and feeds the
        input stream — the baseline therefore holds no pending SDEs
        (cheap to write) and a restore re-runs generation from the
        checkpointed RNG state, reproducing the exact same stream.
        ``span`` is the run's ``(start, end)``, stored alongside so a
        baseline restore knows what to re-run.
        """
        self._attach(system)
        if not self._resumed:
            self.snapshot_log.truncate(0)
            self.checkpoint(
                0,
                {"system": system, "state": None, "span": span, "log_end": 0},
            )

    def after_step(self, system, state) -> None:
        """Checkpoint when the interval has elapsed since the last.

        Interval checkpoints are streamless and hold no recognition
        snapshot; :meth:`restore_latest` rebuilds the pending stream
        against the baseline checkpoint and refills the logs from the
        snapshot log.
        """
        if state.step_index - self._base_step >= self.interval:
            self.checkpoint(
                state.step_index,
                {"system": system, "state": state, "span": None},
                logs=state.report.logs,
            )

    def on_run_complete(self, system, state) -> None:
        """Mark the run finished and release the journal."""
        self._journal({"kind": "complete", "step": state.step_index})
        self.journal.close()

    def _refill_logs(self, payload) -> None:
        """Put back the recognition snapshots a checkpoint left in the
        snapshot log: read and validate every frame below its
        ``log_end``, and refill the logs of its state.

        Raises :class:`CheckpointError` — the checkpoint is then
        skipped like a torn one — when a frame fails validation, or
        the frames do not hold, per engine key, the number of
        snapshots the checkpoint counted.
        """
        state = payload["state"]
        logs = {} if state is None else state.report.logs
        found: dict[str, list] = {}
        for frame in self.snapshot_log.read(payload["log_end"]):
            for key, snapshots in frame.items():
                found.setdefault(key, []).extend(snapshots)
        counted = {key: log.snapshots for key, log in logs.items()}
        if {key: len(s) for key, s in found.items()} != counted:
            raise CheckpointError(
                f"{self.snapshot_log.path}: the frames below byte "
                f"{payload['log_end']} do not hold the snapshots the "
                f"checkpoint counted ({counted})"
            )
        for key, log in logs.items():
            log.snapshots = found[key]
        self._logged = counted

    def restore_latest(self) -> tuple[Any, Any]:
        """Load the newest valid checkpoint and prepare to continue.

        Returns ``(system, state)``.  ``state`` is ``None`` when the
        newest checkpoint is a pre-generation *baseline* — continue by
        calling ``system.run(*coordinator.restored_span,
        recovery=coordinator)``, which regenerates the input stream
        deterministically; otherwise call
        ``system.resume_from(state, coordinator)``.

        A checkpoint is restored only with its snapshot-log prefix: a
        damaged frame below its ``log_end`` makes it invalid, and the
        restore falls back to an older one (counted in
        ``recovery.restore.fallbacks``).  The log is then cut back to
        the restored ``log_end`` — 0 for a baseline — so the steps the
        resumed run replays append their snapshots again exactly once.
        The journal after the restored checkpoint is read for replay
        accounting only: the loop re-executes those steps on its own.
        It spans *every* segment at or after the restored step, in
        order (after a fallback the segments of the skipped checkpoints
        hold committed work too).  Those segments are archived and the
        restored step's reopened empty — replayed work re-journals
        itself as it re-executes, so the journal on disk always
        describes the run that actually happened, each step once.

        Raises :class:`~repro.recovery.checkpoint.NoValidCheckpoint`
        when the directory holds no restorable state.
        """
        payload, info, fallbacks = self.manager.load_latest(
            self._refill_logs
        )
        records: list[dict[str, Any]] = []
        for base_step in self.journal.segments_from(info.step):
            records.extend(self.journal.read_segment(base_step))
            self.journal.archive(base_step)
        self.journal.open(info.step)
        self._resumed = True
        self._base_step = info.step
        self.last_checkpoint = info
        system, state = payload["system"], payload["state"]
        self.restored_span = payload["span"]
        self.snapshot_log.truncate(payload["log_end"])
        if state is not None:
            # The snapshot dropped the regenerable pending stream; the
            # pristine pre-generation system in the (always-retained)
            # baseline checkpoint anchors its reconstruction.
            try:
                baseline = self.manager.load(self.manager.path_for(0))
            except FileNotFoundError:
                raise CheckpointError(
                    f"checkpoint at step {info.step} needs the "
                    f"baseline {self.manager.path_for(0)} to rebuild its "
                    f"pending stream, but the file is missing"
                ) from None
            system.rebuild_pending(baseline["system"], state)
        self._attach(system)

        replay_steps = set()
        replay_items = 0
        for record in records:
            if record.get("kind") == "step" and record["step"] > info.step:
                replay_steps.add(record["step"])
                replay_items += sum(record["arrivals"].values())
        self._count("recovery.restore.count")
        self._count("recovery.restore.fallbacks", fallbacks)
        self._count("recovery.replay.steps", len(replay_steps))
        self._count("recovery.replay.items", replay_items)
        return system, state
