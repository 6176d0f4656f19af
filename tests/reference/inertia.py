"""The law of inertia for one grounding, point by point.

The engine builds every fluent's intervals with the array builders of
``repro.core.intervals`` (all groundings at once); ``make_intervals``
states the same law for one grounding and is what those builders and
the scalar loops of ``scalar_intervals.py`` are tested against.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Optional

from repro.core.intervals import EFFECT_DELAY, Interval, IntervalList


def make_intervals(
    initiations: Iterable[int],
    terminations: Iterable[int],
    *,
    holding_at_start: bool = False,
    window_start: int = 0,
) -> IntervalList:
    """Build the maximal intervals of a simple fluent.

    Given the time-points at which ``initiatedAt`` and ``terminatedAt``
    hold inside the current window, produce the maximal intervals during
    which the fluent holds, applying the law of inertia: once initiated
    at ``t`` the fluent holds from ``t + EFFECT_DELAY`` until the first
    later termination point ``t'`` (ceasing at ``t' + EFFECT_DELAY``).

    ``holding_at_start`` seeds the state at the window's left edge from
    the previous evaluation cycle, which is how inertia is carried
    across overlapping windows.

    Tie-break: if the same time-point both initiates and terminates the
    fluent, termination wins (the fluent does not (re)start there).
    """
    init_set = set(initiations)
    term_set = set(terminations)
    points = sorted(init_set | term_set)

    out: list[Interval] = []
    holding = holding_at_start
    current_start: Optional[int] = window_start if holding else None
    for t in points:
        terminates = t in term_set
        initiates = t in init_set and not terminates
        if holding and terminates:
            end = t + EFFECT_DELAY
            assert current_start is not None
            if end > current_start:
                out.append((current_start, end))
            holding = False
            current_start = None
        elif not holding and initiates:
            holding = True
            current_start = t + EFFECT_DELAY
    if holding and current_start is not None:
        out.append((current_start, None))
    # Pieces are emitted in point order and a new episode can only
    # start strictly after the previous one ended (the state machine
    # must pass through a later initiation point first), so the output
    # is already in normal form.
    return IntervalList._from_normalised(tuple(out))
