"""Crash/restart harness: run, die, resume — as one-liners.

Used by the crash-parity tests.  The harness treats :class:`SimulatedCrash` as the
in-process stand-in for a process death: everything the revived run
may use must come from the recovery directory, never from the crashed
objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.faults import SimulatedCrash
from repro.recovery import CheckpointCoordinator

__all__ = ["CrashOutcome", "run_with_recovery", "resume_run", "run_resilient"]


@dataclass
class CrashOutcome:
    """What one (possibly killed) run attempt produced."""

    #: Whether the attempt died to a :class:`SimulatedCrash`.
    crashed: bool
    #: The step the crash fired at (``None`` for a clean finish).
    crash_step: Optional[int]
    #: The phase the crash fired in (``"step"``/``"checkpoint"``).
    crash_phase: Optional[str]
    #: The report, for a clean finish only.
    report: Optional[object]


def run_with_recovery(
    system,
    start: int,
    end: int,
    directory,
    *,
    crash=None,
    interval: Optional[int] = None,
    retain: int = 3,
) -> CrashOutcome:
    """Run ``system`` with checkpointing into ``directory``.

    A :class:`SimulatedCrash` from ``crash`` is caught and reported as
    a crashed outcome; any other exception propagates.
    """
    coordinator = CheckpointCoordinator(
        directory, interval=interval, retain=retain, crash=crash
    )
    try:
        report = system.run(start, end, recovery=coordinator)
    except SimulatedCrash as death:
        coordinator.journal.close()
        return CrashOutcome(True, death.step, death.phase, None)
    return CrashOutcome(False, None, None, report)


def resume_run(
    directory,
    *,
    crash=None,
    interval: Optional[int] = None,
    retain: int = 3,
):
    """Restore the latest valid checkpoint in ``directory`` and run the
    pipeline to completion.

    Returns ``(system, outcome)`` — the revived system (for map
    rendering, metrics, further queries) and the attempt's
    :class:`CrashOutcome` (a resumed run can itself be crashed by
    ``crash``).
    """
    coordinator = CheckpointCoordinator(
        directory, interval=interval, retain=retain, crash=crash
    )
    system, state = coordinator.restore_latest()
    try:
        if state is None:
            # The newest checkpoint is the pre-generation baseline:
            # re-run from the top — generation is deterministic from
            # the checkpointed RNG state, so this reproduces the
            # crashed run exactly.
            start, end = coordinator.restored_span
            report = system.run(start, end, recovery=coordinator)
        else:
            report = system.resume_from(state, coordinator)
    except SimulatedCrash as death:
        coordinator.journal.close()
        return system, CrashOutcome(True, death.step, death.phase, None)
    return system, CrashOutcome(False, None, None, report)


def run_resilient(
    system,
    start: int,
    end: int,
    directory,
    *,
    crashes=(),
    interval: Optional[int] = None,
    retain: int = 3,
    max_restarts: int = 8,
):
    """Run to completion through a scripted sequence of crashes.

    ``crashes`` injectors are applied one per attempt (first to the
    initial run, then one per resume); once the script is exhausted the
    remaining attempts run crash-free.  Returns the final
    ``(system, report)``.
    """
    script = list(crashes)
    outcome = run_with_recovery(
        system,
        start,
        end,
        directory,
        crash=script.pop(0) if script else None,
        interval=interval,
        retain=retain,
    )
    restarts = 0
    while outcome.crashed:
        restarts += 1
        if restarts > max_restarts:
            raise RuntimeError(
                f"run did not complete within {max_restarts} restarts"
            )
        system, outcome = resume_run(
            directory,
            crash=script.pop(0) if script else None,
            interval=interval,
            retain=retain,
        )
    return system, outcome.report
