"""How fast the machine is while a replay runs: a fixed computation, timed.

The box this benchmark was built on is a guest whose speed changes by
half from one minute to the next and by a tenth from one second to the
next (README, Findings): eighty replays of one ``dublin_rush`` input in
one process took between 12.1 s and 24.2 s, and the median of ten
consecutive ones drifted from 14.3 s to 21.4 s.  Every time metric is
therefore reported in seconds of a machine on which one round of the
computation below takes ``REFERENCE_ROUND_S``.

Two estimates of the machine's speed are taken around every replay and
their geometric mean is the replay's slowdown:

* :func:`seconds`, in the replay's own process on the replay's own
  core, for about a second just before set-up and just after ``run()``
  returns.  It follows the slow drift; the second-to-second noise it
  adds of its own.
* :class:`Sidecar`, a child process that times one round every
  ``PERIOD_S`` for as long as the replay runs, on whichever core the
  replay leaves free.  It sees the very seconds the replay saw, from
  the other core.

On thirty ``dublin_rush`` replays across a change of the box's speed by
44%, the quartile spread of ``run()``'s wall was 36% as the clock read
it, 12% divided by the first estimate, 13% by the second and 7.6% by
their geometric mean.

The computation is what the program does most: sorting and hashing
Python objects, and NumPy passes over an array that does not fit the
first-level caches.  It must never change: every reported time is a
multiple of it.
"""

from __future__ import annotations

import gc
import json
import random
import select
import statistics
import subprocess
import sys
import time

import numpy

#: What one round takes on the machine the reported seconds are those
#: of (about this box in its quiet minutes).
REFERENCE_ROUND_S = 0.03

#: Rounds per :func:`seconds`.
ROUNDS = 25

#: The sidecar starts a round this often: a sixth of one core, so that
#: the two shard workers of ``dublin_rush_sharded2`` keep theirs.
PERIOD_S = 0.25

_rng = random.Random(1)
_FLOATS = tuple(_rng.random() for _ in range(60000))
_ARRAY = numpy.random.default_rng(1).random(400000)
_ARRAY.flags.writeable = False


def one_round() -> None:
    table = {}
    for index, value in enumerate(sorted(_FLOATS)):
        table[index % 5000] = (value, index)
    sum(entry[0] for entry in table.values())
    order = numpy.argsort(_ARRAY)
    (_ARRAY[order] * 2).cumsum()


def seconds() -> float:
    """Mean wall time of a round over ``ROUNDS`` of them, collector off:
    it times the machine, not a heap the replay left behind."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(ROUNDS):
            one_round()
        return (time.perf_counter() - t0) / ROUNDS
    finally:
        if was_enabled:
            gc.enable()


class Sidecar:
    """This file run as a child process: one timed round every
    ``PERIOD_S`` from :meth:`__init__` until :meth:`stop`."""

    def __init__(self) -> None:
        self._child = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        # The child has imported NumPy and timed its first round.
        self._child.stdout.readline()

    def stop(self) -> list[list[float]]:
        """End the child and wait for it; returns its ``[start,
        seconds]`` samples.  ``start`` is on ``time.perf_counter``,
        which is one clock for every process of the machine."""
        samples, _ = self._child.communicate()
        return json.loads(samples or "[]")


def slowdown(
    before_s: float, after_s: float, samples, start: float, end: float
) -> float:
    """Measured seconds / ``slowdown`` = reference seconds, for work
    done between ``start`` and ``end`` (on ``time.perf_counter``)."""
    own = (before_s + after_s) / 2
    beside = [s for t, s in samples if start <= t <= end]
    if not beside:
        return own / REFERENCE_ROUND_S
    return (own * statistics.fmean(beside)) ** 0.5 / REFERENCE_ROUND_S


def _sidecar_main() -> None:
    gc.disable()
    one_round()
    print("ready", flush=True)
    samples = []
    while True:
        t0 = time.perf_counter()
        one_round()
        elapsed = time.perf_counter() - t0
        samples.append((t0, elapsed))
        # Sleeps until the next round is due or stdin closes.
        if select.select([sys.stdin], [], [], max(0.0, PERIOD_S - elapsed))[0]:
            break
    print(json.dumps(samples))


if __name__ == "__main__":
    _sidecar_main()
