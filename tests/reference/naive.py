"""RTEC's semantics, stated once, naively (ROADMAP item 1, first cut).

An evaluator written from the definitions of the paper's Section 4.2,
for checking the engines *against a definition* instead of against
each other.  It is deliberately slow and deliberately ignorant: it
imports the record types, the definition classes (whose rule bodies it
runs) and :class:`IntervalList` (the value a body reads and a static
body returns) — and nothing of ``core/rtec.py``, ``core/reference.py``,
``core/window.py``, ``core/columns.py`` or ``make_intervals``
(``test_engines_match_reference.py`` asserts that fence).  What it
states:

* **Window contents.**  At query time ``Q`` a rule body sees every SDE
  fed so far that occurred in ``(Q - WM, Q]`` and had arrived by ``Q``
  — nothing else, however it was fed.
* **Record order as a body sees it.**  The events of one type, and the
  facts of one grounding of an input fluent, by occurrence time and,
  within a time-point, in the order they were fed.
* **``holdsFor`` under inertia, across slides.**  The window sees no
  SDE at or before ``Q - WM``, so the *previous* evaluation — which
  saw them all — is the authority on the first time-point of the
  window, ``Q - WM + 1``: a fluent that held there keeps holding, and
  its episode keeps the start the previous evaluation reported
  (interval retention).  From there on, time-point by time-point.
  Boolean fluent: ``holdsAt(T + 1)`` iff not ``terminatedAt(T)`` and
  (``initiatedAt(T)`` or ``holdsAt(T)``) — a termination beats an
  initiation at the same point.  Valued fluent: the value after ``T``
  is the largest value initiated at ``T`` if any; else none, if the
  value held at ``T`` is terminated at ``T``; else the value held at
  ``T`` — a termination applies before a simultaneous initiation.  An
  episode still running after ``Q`` is open (end ``None``).
* **Occurrence order.**  A derived event's occurrences by ``(time,
  key)``; occurrences tied on both stay in the order the body emitted
  them.

The previous evaluation is the evaluator's own previous answer: the
one thing a query takes from its predecessor, here as in the engines.
"""

from collections import defaultdict
from dataclasses import dataclass, field

from repro.core.events import Event, FluentFact
from repro.core.intervals import IntervalList
from repro.core.rules import (
    DerivedEvent,
    SimpleFluent,
    StaticFluent,
    ValuedFluent,
)


@dataclass
class NaiveSnapshot:
    """What one query recognised (the fields the engines' snapshots
    are compared on)."""

    query_time: int
    window_start: int
    #: Events (not facts) in the window, and those of them that had
    #: not arrived by the previous query time.
    n_events: int = 0
    n_new_events: int = 0
    fluents: dict = field(default_factory=dict)
    occurrences: dict = field(default_factory=dict)


class NaiveContext:
    """What a rule body may read at one query time: the read interface
    of :class:`repro.core.rules.RuleContext`, over plain lists."""

    def __init__(self, window_start, window_end, records, params):
        self.window_start = window_start
        self.window_end = window_end
        self.memo = {}
        self._params = params
        # ``records`` come in feed order; sorting by time alone is
        # stable, so ties stay in feed order.
        self._events = defaultdict(list)
        self._facts = defaultdict(lambda: defaultdict(list))
        for record in sorted(records, key=lambda r: r.time):
            if isinstance(record, FluentFact):
                self._facts[record.name][record.key].append(record)
            else:
                self._events[record.type].append(record)
        self._occurrences = {}
        self._fluents = {}

    # -- inputs ----------------------------------------------------------
    def events(self, event_type):
        return self._events.get(event_type, [])

    def fact_at(self, name, key, t):
        for fact in self._facts[name].get(key, ()):
            if fact.time == t:
                return fact.value
        return None

    def fact_latest(self, name, key, t):
        value = None
        for fact in self._facts[name].get(key, ()):
            if fact.time <= t:
                value = fact.value
        return value

    def fact_keys(self, name):
        return list(self._facts[name])

    def param(self, name):
        return self._params[name]

    # -- lower strata ----------------------------------------------------
    def derived(self, event_type):
        return self._occurrences.get(event_type, ())

    def fluent(self, name):
        return self._fluents.get(name, {})

    def intervals(self, name, key):
        return self.fluent(name).get(key, IntervalList.empty())

    def holds_at(self, name, key, t):
        return _covering(self.intervals(name, key), t) is not None

    def value_at(self, name, key, t):
        for stored, intervals in self.fluent(name).items():
            if stored[:-1] == key and _covering(intervals, t) is not None:
                return stored[-1]
        return None


def _covering(intervals, t):
    """The ``(start, end)`` of ``intervals`` that holds at ``t``."""
    for start, end in intervals:
        if start <= t and (end is None or t < end):
            return start, end
    return None


def _in_dependency_order(definitions):
    """Every definition after the definitions it reads."""
    names = {d.name for d in definitions}
    ordered, placed = [], set()
    while len(ordered) < len(definitions):
        ready = [
            d for d in definitions
            if d.name not in placed
            and all(dep in placed or dep not in names for dep in d.depends_on)
        ]
        if not ready:
            raise ValueError("cyclic definitions")
        ordered.append(ready[0])
        placed.add(ready[0].name)
    return ordered


def _episodes(seed, happenings, after):
    """The value of one grounding over the window's time-points, as
    ``value -> [(start, end)]``.

    ``seed`` is ``(value, start)`` — what held at the window's first
    time-point, and since when — or ``None``.
    ``happenings`` maps a time-point to what happened to the grounding
    there, and ``after(value, happening)`` is the value one time-point
    later.  A time-point at which nothing happened changes nothing
    (inertia), so only the others are visited.
    """
    value, start = seed if seed is not None else (None, None)
    spans = defaultdict(list)
    for t in sorted(happenings):
        new = after(value, happenings[t])
        if new != value:
            if value is not None:
                spans[value].append((start, t + 1))
            value, start = new, t + 1
    if value is not None:
        spans[value].append((start, None))
    return spans


def _after_boolean(holding, happening):
    initiated, terminated = happening
    if terminated:
        return None
    return True if initiated or holding else None


def _after_valued(value, happening):
    initiated, terminated = happening
    if initiated:
        return sorted(initiated)[-1]
    return None if value in terminated else value


class NaiveRTEC:
    """Feed it what the engine was fed, ask it what the engine was
    asked; it answers from the definitions above."""

    def __init__(self, definitions, *, window, step, params=None, start=0):
        self.window = window
        self.step = step
        self.params = dict(params or {})
        self._definitions = _in_dependency_order(list(definitions))
        self._start = start
        self._fed = []  # every record, in feed order
        self._last_query = None
        #: fluent name -> stored grounding -> intervals: the previous
        #: evaluation's answer.
        self._previous = defaultdict(dict)

    def feed(self, events=(), facts=()):
        self._fed.extend(events)
        self._fed.extend(facts)

    def query(self, q):
        window_start = q - self.window
        window = [
            record for record in self._fed
            if window_start < record.time <= q and record.arrival <= q
        ]
        snapshot = NaiveSnapshot(q, window_start)
        for record in window:
            if isinstance(record, Event):
                snapshot.n_events += 1
                if self._last_query is None or record.arrival > self._last_query:
                    snapshot.n_new_events += 1
        ctx = NaiveContext(window_start, q, window, self.params)
        for definition in self._definitions:
            name = definition.name
            if isinstance(definition, DerivedEvent):
                # ``sorted`` is stable: ties keep the body's order.
                ctx._occurrences[name] = snapshot.occurrences[name] = sorted(
                    definition.occurrences(ctx), key=lambda o: (o.time, o.key)
                )
                continue
            if isinstance(definition, StaticFluent):
                result = dict(definition.derive(ctx))
            elif isinstance(definition, SimpleFluent):
                result = self._holds_for(definition, ctx, valued=False)
            elif isinstance(definition, ValuedFluent):
                result = self._holds_for(definition, ctx, valued=True)
            else:
                raise TypeError(f"unknown definition type: {definition!r}")
            ctx._fluents[name] = snapshot.fluents[name] = result
        self._last_query = q
        return snapshot

    def run(self, until):
        q = self._start if self._last_query is None else self._last_query
        while q + self.step <= until:
            q += self.step
            yield self.query(q)

    def _holds_for(self, definition, ctx, *, valued):
        """``holdsFor`` of every grounding of a boolean or valued
        fluent, stored as the engines store it: a boolean fluent under
        its grounding, a valued one under ``grounding + (value,)``."""
        first = ctx.window_start + 1
        happenings = defaultdict(lambda: defaultdict(lambda: (set(), set())))
        for slot, points in enumerate(
            (definition.initiations(ctx), definition.terminations(ctx))
        ):
            for point in points:
                key, t = point[0], point[-1]
                happenings[key][t][slot].add(point[1] if valued else True)
        # What held at the window's first time-point, per grounding,
        # according to the previous evaluation.
        seeds = {}
        for stored, intervals in self._previous[definition.name].items():
            held = _covering(intervals, first)
            if held is not None:
                key, value = (stored[:-1], stored[-1]) if valued else (stored, True)
                seeds[key] = (value, held[0])
        result = {}
        for key in set(happenings) | set(seeds):
            spans = _episodes(
                seeds.get(key), happenings.get(key, {}),
                _after_valued if valued else _after_boolean,
            )
            for value, intervals in spans.items():
                result[key + (value,) if valued else key] = IntervalList(intervals)
        self._previous[definition.name] = result
        return result
