"""Definition DSL for RTEC complex events and fluents.

The paper expresses complex-event (CE) definitions as Event Calculus
rules over ``happensAt`` / ``holdsAt`` / ``initiatedAt`` /
``terminatedAt`` / ``holdsFor`` (Section 4.1).  We mirror that structure
with three kinds of definition objects evaluated by the engine in
dependency (stratification) order:

* :class:`DerivedEvent` — a CE modelled as a rule defining event
  instances with ``happensAt`` (e.g. ``delayIncrease``);
* :class:`SimpleFluent` — a fluent defined by ``initiatedAt`` /
  ``terminatedAt`` rules and subject to the law of inertia (e.g.
  ``scatsCongestion``, rule-set (2));
* :class:`StaticFluent` — a statically-determined fluent defined
  through interval-manipulation constructs (e.g.
  ``sourceDisagreement`` via ``relative_complement_all``).

Rule bodies receive a :class:`RuleContext` giving windowed access to
input SDEs, input-fluent facts, previously derived events and already
computed fluent intervals.
"""

from __future__ import annotations

import abc
import bisect
from collections import defaultdict
from collections.abc import Iterable, Mapping, Sequence
from typing import Any, Callable, Optional

from .columns import ColumnStore
from .events import Event, FluentFact, FluentKey, Occurrence
from .intervals import IntervalList


class RuleContext:
    """Windowed view over inputs and intermediate results.

    One context is built per query time; it exposes exactly the data an
    Event Calculus rule body may reference: SDEs inside the working
    memory, input-fluent facts, derived-event occurrences of lower
    strata, fluent intervals of lower strata, and tunable parameters
    (thresholds such as the density/flow bounds of rule-set (2)).

    Inputs come from one of two places.  ``columns`` is the engine's
    working memory, whose window is arrays: compiled rule bodies read
    them as they are (:meth:`events_columns` / :meth:`facts_columns`),
    and the record accessors — :meth:`events`, :meth:`fact_at`,
    :meth:`fact_latest`, :meth:`fact_keys` — are lazy views that have
    the store build the records of a type the first time a body asks
    for it.  ``events`` / ``facts`` hold the inputs as records instead
    (the reference engine's per-query lists, hand-built contexts in
    tests); such a context serves interpreted bodies only.
    """

    def __init__(
        self,
        *,
        window_start: int,
        window_end: int,
        events: Mapping[str, Sequence[Event]],
        facts: Mapping[tuple[str, FluentKey], Sequence[FluentFact]],
        params: Mapping[str, Any],
        columns: Optional[Any] = None,
    ):
        self.window_start = window_start
        self.window_end = window_end
        self._events: dict[str, Sequence[Event]] = dict(events)
        #: fluent name -> grounding -> (times, facts), time-ordered.
        self._facts: dict[
            str, dict[FluentKey, tuple[Sequence[int], Sequence[FluentFact]]]
        ] = {}
        for (name, key), group in facts.items():
            self._facts.setdefault(name, {})[key] = (
                [fact.time for fact in group], group
            )
        self._params = params
        self._columns = columns
        self._occurrences: dict[str, list[Occurrence]] = {}
        self._fluents: dict[str, dict[FluentKey, IntervalList]] = {}
        #: Per-window scratch space shared by all rule bodies.  Rules
        #: that repeat work over the same inputs (e.g. the spatial
        #: ``close`` joins performed by several bus-side definitions)
        #: memoise results here; the context — and the memo — lives for
        #: exactly one query time.
        self.memo: dict = {}

    # -- inputs --------------------------------------------------------
    def events(self, event_type: str) -> Sequence[Event]:
        """All input SDEs of ``event_type`` inside the window, sorted by
        occurrence time (``happensAt`` facts)."""
        found = self._events.get(event_type)
        if found is None:
            store = self.window_store("event", event_type)
            found = self._events[event_type] = (
                store.records() if store is not None else ()
            )
        return found

    def window_store(self, kind: str, name: str):
        """The working memory's own store of an event type / input
        fluent — the window itself, whose rows keep their sequence
        numbers from query to query — or ``None`` when the inputs are
        records (or no row of it was ever admitted)."""
        memory = self._columns
        return memory.store(kind, name) if memory is not None else None

    def _facts_of(
        self, name: str
    ) -> Mapping[FluentKey, tuple[Sequence[int], Sequence[FluentFact]]]:
        """The window's facts of input fluent ``name`` per grounding,
        as ``(times, facts)``."""
        found = self._facts.get(name)
        if found is None:
            store = self.window_store("fact", name)
            found = self._facts[name] = (
                store.by_key() if store is not None else {}
            )
        return found

    def fact_at(self, name: str, key: FluentKey, t: int) -> Optional[Any]:
        """Value of input fluent ``name(key)`` recorded *exactly* at
        ``t``, or ``None``.

        The bus dataset pairs each ``move`` event with a ``gps`` fact at
        the same time-point (formalisation (1)); rule bodies join them
        through this accessor.
        """
        times, facts = self._facts_of(name).get(key, ((), ()))
        i = bisect.bisect_left(times, t)
        if i < len(times) and times[i] == t:
            return facts[i].value
        return None

    def fact_latest(self, name: str, key: FluentKey, t: int) -> Optional[Any]:
        """Most recent value of input fluent ``name(key)`` at or before
        ``t``, or ``None`` if no fact has been recorded yet."""
        times, facts = self._facts_of(name).get(key, ((), ()))
        i = bisect.bisect_right(times, t)
        if i == 0:
            return None
        return facts[i - 1].value

    def fact_keys(self, name: str) -> list[FluentKey]:
        """All groundings of input fluent ``name`` seen in the window."""
        return list(self._facts_of(name))

    def param(self, name: str) -> Any:
        """A tunable parameter (threshold) by dotted name."""
        return self._params[name]

    def events_columns(self, event_type: str, spec) -> Any:
        """The rows of :meth:`events` of ``event_type`` as arrays
        (:class:`repro.core.columns.ColumnStore`), in the same order:
        the working memory's own store of the type, which keeps the
        layout ``spec`` the rule declared at engine construction
        (:attr:`repro.core.compiled.CompiledRule.columns`) — or an
        empty store of that layout while no row of the type was ever
        admitted.  Compiled rule bodies call this instead of iterating
        event objects.
        """
        return self._columns_of("event", event_type, spec)

    def facts_columns(self, name: str, spec) -> Any:
        """The facts of input fluent ``name`` inside the window — all
        groundings together — as arrays, ordered by time and, within a
        time-point, as :meth:`fact_at` would find them (the first fact
        of a grounding at a time-point comes first)."""
        return self._columns_of("fact", name, spec)

    def _columns_of(self, kind: str, name: str, spec) -> Any:
        store = self._columns.store(kind, name)
        if store is None:
            store = ColumnStore(spec, kind == "fact", self._columns.tokens)
        return store

    # -- intermediate results ------------------------------------------
    def derived(self, event_type: str) -> Sequence[Occurrence]:
        """Occurrences of an already-evaluated derived event."""
        return self._occurrences.get(event_type, ())

    def fluent(self, name: str) -> Mapping[FluentKey, IntervalList]:
        """All computed interval lists of fluent ``name`` this cycle."""
        return self._fluents.get(name, {})

    def intervals(self, name: str, key: FluentKey) -> IntervalList:
        """``holdsFor(F=V, I)`` for an already-evaluated fluent."""
        return self._fluents.get(name, {}).get(key, IntervalList.empty())

    def holds_at(self, name: str, key: FluentKey, t: int) -> bool:
        """``holdsAt(F=V, T)`` for an already-evaluated fluent."""
        return self.intervals(name, key).holds_at(t)

    def value_at(self, name: str, key: FluentKey, t: int) -> Any:
        """The value a multi-valued fluent holds at ``t`` (or ``None``).

        Valued fluents are stored under ``key + (value,)``; this scans
        the groundings extending ``key`` and returns the value whose
        intervals cover ``t``.
        """
        for stored_key, intervals in self._fluents.get(name, {}).items():
            if stored_key[:-1] == key and intervals.holds_at(t):
                return stored_key[-1]
        return None

    # -- used by the engine --------------------------------------------
    def _store_occurrences(
        self, event_type: str, occurrences: list[Occurrence]
    ) -> None:
        self._occurrences[event_type] = occurrences

    def _store_fluent(
        self, name: str, intervals: dict[FluentKey, IntervalList]
    ) -> None:
        self._fluents[name] = intervals


class Definition(abc.ABC):
    """Base class for CE/fluent definitions.

    ``name`` identifies the defined event type or fluent; ``depends_on``
    lists the names of *other definitions* the rule bodies read, which
    the engine uses to stratify evaluation (RTEC requires hierarchical
    definitions).
    """

    def __init__(self, name: str, depends_on: Iterable[str] = ()):
        self.name = name
        self.depends_on = tuple(depends_on)

    def compiled(self, params: Mapping[str, Any]):
        """A vectorised evaluator for this rule body (or ``None``).

        Returning a :class:`repro.core.compiled.CompiledRule` lets the
        engine lower this definition's point derivation to array
        operations over columnar views; the returned object must
        produce exactly the points the interpreted body would — for a
        fluent as arrays plus a code -> grounding lookup
        (:meth:`repro.core.compiled.CompiledRule.derive`; the parity
        suite pins this) — and every rule reading one input
        type must declare the same grounding-token layout for it.  The
        default ``None`` keeps the definition on the interpreter,
        which is always safe — anything the compiler can't express
        simply stays there.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class DerivedEvent(Definition):
    """A CE defined as instantaneous event instances (``happensAt``)."""

    @abc.abstractmethod
    def occurrences(self, ctx: RuleContext) -> Iterable[Occurrence]:
        """Yield the recognised occurrences inside the window."""


class SimpleFluent(Definition):
    """A fluent defined by initiation/termination rules plus inertia.

    The engine encodes the ``initiatedAt`` / ``terminatedAt`` points
    of all groundings as ``(grounding code, time)`` arrays and builds
    their maximal intervals at once
    (:func:`repro.core.intervals.simple_intervals`: per grounding,
    the law of inertia :func:`repro.core.intervals.make_intervals`
    states), seeding the value at the window's left edge from the
    previous evaluation cycle.
    """

    @abc.abstractmethod
    def initiations(
        self, ctx: RuleContext
    ) -> Iterable[tuple[FluentKey, int]]:
        """Yield ``(grounding, T)`` pairs where ``initiatedAt`` holds."""

    @abc.abstractmethod
    def terminations(
        self, ctx: RuleContext
    ) -> Iterable[tuple[FluentKey, int]]:
        """Yield ``(grounding, T)`` pairs where ``terminatedAt`` holds."""


class StaticFluent(Definition):
    """A statically-determined fluent (interval manipulation)."""

    @abc.abstractmethod
    def derive(self, ctx: RuleContext) -> Mapping[FluentKey, IntervalList]:
        """Return the interval list per grounding for this window."""


class ValuedFluent(Definition):
    """A multi-valued simple fluent — full ``F = V`` semantics.

    RTEC fluents range over arbitrary value sets: ``holdsFor(F=V, I)``
    gives the maximal intervals per *value*, and initiating ``F = V``
    implicitly terminates every other value (a fluent holds one value
    at a time).  The engine stores the result under the grounding
    ``key + (value,)`` so ``ctx.intervals(name, key + (value,))`` works
    like for boolean fluents; :meth:`RuleContext.value_at` returns the
    value held at a time-point.

    Determinism note: if several distinct values are initiated for the
    same grounding at the same time-point, the largest (by ``sorted``
    order) wins; an explicit termination at the same point is applied
    first.
    """

    @abc.abstractmethod
    def initiations(
        self, ctx: RuleContext
    ) -> Iterable[tuple[FluentKey, Any, int]]:
        """Yield ``(grounding, value, T)`` where ``initiatedAt(F=V,T)``."""

    @abc.abstractmethod
    def terminations(
        self, ctx: RuleContext
    ) -> Iterable[tuple[FluentKey, Any, int]]:
        """Yield ``(grounding, value, T)`` where ``terminatedAt(F=V,T)``."""


class FunctionalValuedFluent(ValuedFluent):
    """A :class:`ValuedFluent` backed by two plain functions."""

    def __init__(
        self,
        name: str,
        initiated: Callable[[RuleContext], Iterable[tuple[FluentKey, Any, int]]],
        terminated: Callable[[RuleContext], Iterable[tuple[FluentKey, Any, int]]],
        depends_on: Iterable[str] = (),
    ):
        super().__init__(name, depends_on)
        self._initiated = initiated
        self._terminated = terminated

    def initiations(self, ctx: RuleContext):
        return self._initiated(ctx)

    def terminations(self, ctx: RuleContext):
        return self._terminated(ctx)


# ----------------------------------------------------------------------
# Convenience adaptors for quick, function-based definitions
# ----------------------------------------------------------------------
class FunctionalEvent(DerivedEvent):
    """A :class:`DerivedEvent` backed by a plain function."""

    def __init__(
        self,
        name: str,
        fn: Callable[[RuleContext], Iterable[Occurrence]],
        depends_on: Iterable[str] = (),
    ):
        super().__init__(name, depends_on)
        self._fn = fn

    def occurrences(self, ctx: RuleContext) -> Iterable[Occurrence]:
        return self._fn(ctx)


class FunctionalSimpleFluent(SimpleFluent):
    """A :class:`SimpleFluent` backed by two plain functions."""

    def __init__(
        self,
        name: str,
        initiated: Callable[[RuleContext], Iterable[tuple[FluentKey, int]]],
        terminated: Callable[[RuleContext], Iterable[tuple[FluentKey, int]]],
        depends_on: Iterable[str] = (),
    ):
        super().__init__(name, depends_on)
        self._initiated = initiated
        self._terminated = terminated

    def initiations(self, ctx: RuleContext) -> Iterable[tuple[FluentKey, int]]:
        return self._initiated(ctx)

    def terminations(self, ctx: RuleContext) -> Iterable[tuple[FluentKey, int]]:
        return self._terminated(ctx)


class FunctionalStaticFluent(StaticFluent):
    """A :class:`StaticFluent` backed by a plain function."""

    def __init__(
        self,
        name: str,
        fn: Callable[[RuleContext], Mapping[FluentKey, IntervalList]],
        depends_on: Iterable[str] = (),
    ):
        super().__init__(name, depends_on)
        self._fn = fn

    def derive(self, ctx: RuleContext) -> Mapping[FluentKey, IntervalList]:
        return self._fn(ctx)


def stratify(definitions: Sequence[Definition]) -> list[Definition]:
    """Topologically sort definitions by their ``depends_on`` edges.

    Dependencies naming input event types (not present among the
    definitions) are ignored — inputs are stratum zero by construction.
    Raises :class:`ValueError` on cyclic or duplicate definitions.
    """
    by_name: dict[str, Definition] = {}
    for d in definitions:
        if d.name in by_name:
            raise ValueError(f"duplicate definition name: {d.name!r}")
        by_name[d.name] = d

    ordered: list[Definition] = []
    state: dict[str, int] = defaultdict(int)  # 0=unseen, 1=visiting, 2=done

    def visit(name: str, chain: tuple[str, ...]) -> None:
        if name not in by_name or state[name] == 2:
            return
        if state[name] == 1:
            cycle = " -> ".join(chain + (name,))
            raise ValueError(f"cyclic definitions: {cycle}")
        state[name] = 1
        for dep in by_name[name].depends_on:
            visit(dep, chain + (name,))
        state[name] = 2
        ordered.append(by_name[name])

    for d in definitions:
        visit(d.name, ())
    return ordered
