"""Crash injection for recovery testing.

PR 2's fault injectors corrupt the *data* flowing through the system;
this module kills the *process* (in effigy): a :class:`CrashInjector`
raises :class:`SimulatedCrash` out of the pipeline's recovery hooks at
a configurable or seeded recognition step, either at the start of the
step or in the middle of a checkpoint write.  The mid-write variant
also leaves a torn (truncated) checkpoint file behind, exercising the
checksum validation and fall-back-to-previous-checkpoint path that a
real power loss through a non-atomic writer would.

The exception derives from ``RuntimeError``, and nothing on the loop's
path catches it to carry on: a crash is a crash.
"""

from __future__ import annotations

import os
import random
import signal
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal, Optional

__all__ = ["SimulatedCrash", "CrashInjector"]


class SimulatedCrash(RuntimeError):
    """Raised by :class:`CrashInjector` in place of a process death."""

    def __init__(self, step: int, phase: str):
        super().__init__(f"simulated crash at step {step} ({phase})")
        self.step = step
        self.phase = phase


@dataclass
class CrashInjector:
    """Kills one run at a deterministic point.

    Parameters
    ----------
    at_step:
        Recognition step to die at (1-based, counted from the start of
        the whole run — resumed runs continue the numbering).  ``None``
        draws the step from ``seed`` over ``step_range``.
    phase:
        ``"step"`` raises before the step's write-ahead record is
        journalled; ``"checkpoint"`` raises in the middle of the first
        checkpoint write at or after ``at_step``, leaving the first
        ``torn_bytes`` of the new checkpoint on disk (a torn file the
        loader must reject).
    seed:
        Seed for the drawn step when ``at_step`` is ``None``.
    step_range:
        Inclusive range the seeded step is drawn from.
    torn_bytes:
        Length of the truncated checkpoint prefix the mid-write crash
        leaves behind.
    mode:
        ``"raise"`` (default) raises :class:`SimulatedCrash` so an
        in-process harness can catch it; ``"sigkill"`` sends the
        current process an uncatchable ``SIGKILL`` instead — the real
        thing, usable only inside a sacrificial worker process (the
        sharded runtime's chaos tests).  The mid-checkpoint variant
        still leaves the torn file behind before dying.
    """

    at_step: Optional[int] = None
    phase: Literal["step", "checkpoint"] = "step"
    seed: Optional[int] = None
    step_range: tuple[int, int] = (1, 10)
    torn_bytes: int = 128
    mode: Literal["raise", "sigkill"] = "raise"
    #: Set once the crash has fired; a resumed run reusing the same
    #: injector will not be killed twice.
    fired: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if self.phase not in ("step", "checkpoint"):
            raise ValueError(
                f"phase must be 'step' or 'checkpoint', got {self.phase!r}"
            )
        if self.mode not in ("raise", "sigkill"):
            raise ValueError(
                f"mode must be 'raise' or 'sigkill', got {self.mode!r}"
            )
        if self.at_step is None:
            if self.seed is None:
                raise ValueError("either at_step or seed is required")
            lo, hi = self.step_range
            if lo > hi or lo < 1:
                raise ValueError(
                    f"step_range must satisfy 1 <= lo <= hi, "
                    f"got {self.step_range!r}"
                )
            self.at_step = random.Random(self.seed).randint(lo, hi)
        elif self.at_step < 1:
            raise ValueError(f"at_step must be >= 1, got {self.at_step}")

    # -- hooks called by the checkpoint coordinator --------------------
    def before_step(self, step: int) -> None:
        """Die at the start of the configured step (phase ``"step"``)."""
        if self.phase == "step" and not self.fired and step == self.at_step:
            self.fired = True
            self._die(step, "step")

    def on_checkpoint_write(self, step: int, path, data: bytes) -> None:
        """Die mid-write of the checkpoint for ``step`` (phase
        ``"checkpoint"``), leaving a torn file at the final path."""
        if (
            self.phase == "checkpoint"
            and not self.fired
            and step >= (self.at_step or 0)
        ):
            self.fired = True
            Path(path).write_bytes(data[: self.torn_bytes])
            self._die(step, "checkpoint")

    def _die(self, step: int, phase: str) -> None:
        if self.mode == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)
        raise SimulatedCrash(step, phase)
