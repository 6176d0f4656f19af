"""The snapshot codec of the shard bus: a snapshot sent as what changed.

Consecutive windows overlap, so most of a region's answer at ``Q_i`` is
the answer it gave at ``Q_{i-1}``: the engine keeps a grounding's
:class:`~repro.core.intervals.IntervalList` object when its intervals
did not change, and a derived event's :class:`~repro.core.events.
Occurrence` object while the row it was found on stays in the window.
A worker therefore sends each :class:`~repro.core.rtec.
RecognitionSnapshot` as a delta against the last one it sent, and the
coordinator rebuilds it against the last one it received:

* per fluent, the groundings whose ``IntervalList`` is not the
  identical object, the groundings that were removed and — only when
  the grounding order is not "old order minus removed, then new
  groundings" — the whole order;
* per derived event, the occurrences that are new and, per position
  of the list, the index of the occurrence in the previous list
  (``-1``: the next new one);
* every other field as it is.

The rebuilt snapshot equals the sent one in every field and in the
order of every dict and list (alert order and crowd outcomes follow
iteration order), and shares each unchanged object with the previous
snapshot, as the in-process loop's snapshots do.  A full snapshot is a
delta against nothing (``base`` is ``None``).  A delta whose base is
not the snapshot the decoder holds raises
:class:`~repro.shard.bus.ShardConnectionLost`: the coordinator treats
it as a death of the worker, whose restart sends a full snapshot, and
never guesses a snapshot.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Optional

from ..core.rtec import RecognitionSnapshot
from ..obs import Registry
from .bus import ShardConnectionLost

__all__ = ["encode", "decode"]

#: The snapshot fields sent as they are.
_PLAIN = tuple(
    f.name
    for f in fields(RecognitionSnapshot)
    if f.name not in ("fluents", "occurrences")
)


def encode(
    snapshot: RecognitionSnapshot,
    base: Optional[RecognitionSnapshot],
    metrics: Registry,
) -> dict:
    """``snapshot`` as a delta against ``base`` (``None``: in full).

    Counts into ``metrics`` the occurrences and interval lists sent and
    those referenced in ``base`` (``bus.*``).
    """
    old_fluents = {} if base is None else base.fluents
    old_occurrences = {} if base is None else base.occurrences
    intervals_sent = intervals_referenced = 0
    fluents = []
    for name, current in snapshot.fluents.items():
        previous = old_fluents.get(name, {})
        changed = {
            key: intervals
            for key, intervals in current.items()
            if previous.get(key) is not intervals
        }
        removed = [key for key in previous if key not in current]
        keys = list(current)
        kept = len(previous) - len(removed)
        order = None
        if keys[:kept] != [key for key in previous if key in current]:
            order = keys
        fluents.append((name, changed, removed, order))
        intervals_sent += len(changed)
        intervals_referenced += len(current) - len(changed)
    occurrences_sent = occurrences_referenced = 0
    derived = []
    for name, current in snapshot.occurrences.items():
        position = {
            id(occurrence): i
            for i, occurrence in enumerate(old_occurrences.get(name, ()))
        }
        index = [position.get(id(occurrence), -1) for occurrence in current]
        new = [o for o, i in zip(current, index) if i < 0]
        derived.append((name, new, index))
        occurrences_sent += len(new)
        occurrences_referenced += len(current) - len(new)
    metrics.counter("bus.intervals_sent").inc(intervals_sent)
    metrics.counter("bus.intervals_referenced").inc(intervals_referenced)
    metrics.counter("bus.occurrences_sent").inc(occurrences_sent)
    metrics.counter("bus.occurrences_referenced").inc(occurrences_referenced)
    return {
        "base": None if base is None else base.query_time,
        "plain": {name: getattr(snapshot, name) for name in _PLAIN},
        "fluents": fluents,
        "occurrences": derived,
    }


def decode(
    delta: dict, base: Optional[RecognitionSnapshot]
) -> RecognitionSnapshot:
    """The snapshot ``delta`` was encoded from, rebuilt against
    ``base``, the last snapshot decoded from the same sender.

    Raises :class:`ShardConnectionLost` when the delta was encoded
    against another snapshot than ``base``.
    """
    if delta["base"] is None:
        base = None
    elif base is None or base.query_time != delta["base"]:
        held = None if base is None else base.query_time
        raise ShardConnectionLost(
            f"snapshot delta against query {delta['base']}, "
            f"but the coordinator holds query {held}"
        )
    old_fluents = {} if base is None else base.fluents
    old_occurrences = {} if base is None else base.occurrences
    fluents = {}
    for name, changed, removed, order in delta["fluents"]:
        previous = old_fluents.get(name, {})
        if order is None:
            current = dict(previous)
            for key in removed:
                del current[key]
            current.update(changed)
        else:
            current = {
                key: changed[key] if key in changed else previous[key]
                for key in order
            }
        fluents[name] = current
    occurrences = {}
    for name, new, index in delta["occurrences"]:
        previous = old_occurrences.get(name, ())
        fresh = iter(new)
        occurrences[name] = [
            previous[i] if i >= 0 else next(fresh) for i in index
        ]
    return RecognitionSnapshot(
        fluents=fluents, occurrences=occurrences, **delta["plain"]
    )
