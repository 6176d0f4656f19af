"""The reference engine: RTEC over a window rebuilt from objects.

:class:`ReferenceRTEC` is the direct transcription of the paper's
Section 4.2 — buffer the fed ``Event`` / ``FluentFact`` objects, and
at each query time collect those with occurrence in ``(Q - WM, Q]``
that have arrived by ``Q`` — with every rule body on the interpreter.
It shares the evaluation loop, interval assembly and the inertia cache
with :class:`~.rtec.RTEC` by inheritance and overrides only where the
window comes from, so it is independent of the working memory's
admission, of the column stores and of every compiled rule body.

Why it still exists: the frozen benchmark's oracle
(``benchmarks/e2e/workloads.py::oracle``) records its reference
digests from ``SystemConfig(incremental=False, compiled_rules=False)``,
which selects this class.  It goes — this file, and those two fields —
with the benchmark revision of ROADMAP item 2; what checks *both*
engines meanwhile, the shared inertia seed included, is the naive
evaluator of ``tests/reference``.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable

from .columns import SDEColumns
from .events import Event, FluentFact, FluentKey
from .rtec import RTEC, RecognitionSnapshot
from .rules import RuleContext


class ReferenceRTEC(RTEC):
    """:class:`~.rtec.RTEC` with the window rebuilt per query from
    object buffers, and nothing compiled.

    The inherited working memory stays empty — nothing is ever
    buffered into it — so the row counters a query reads from it are
    zero, and every point-deriving definition counts as a
    ``compiled_fallbacks`` evaluation.  Pickles whole (the buffers
    travel); there is no streamless form.
    """

    def __init__(self, definitions, **kwargs):
        super().__init__(definitions, **kwargs)
        self._compiled = {}
        self._events: list[Event] = []
        self._facts: list[FluentFact] = []
        self._inputs_sorted = True

    def feed(
        self,
        events: Iterable[Event] = (),
        facts: Iterable[FluentFact] = (),
    ) -> None:
        """Buffer input SDEs and input-fluent facts, in any order;
        negative occurrence times are rejected as in
        :meth:`RTEC.feed`, and what preceded the rejected record stays
        fed.  The buffers are sorted per query."""
        self._inputs_sorted = False
        for ev in events:
            if ev.time < 0:
                raise ValueError(
                    f"event of type {ev.type!r} occurs at negative "
                    f"time {ev.time}; SDE timestamps must be >= 0"
                )
            self._events.append(ev)
        for fact in facts:
            if fact.time < 0:
                raise ValueError(
                    f"fluent fact {fact.name!r} occurs at negative "
                    f"time {fact.time}; SDE timestamps must be >= 0"
                )
            self._facts.append(fact)

    def feed_columns(self, batch: SDEColumns) -> None:
        """Materialise a columnar batch into the object buffers."""
        batch.validate()
        if batch.n:
            self._events.extend(batch.iter_events())
            self._facts.extend(batch.iter_facts())
            self._inputs_sorted = False

    def _window(self, snapshot: RecognitionSnapshot) -> RuleContext:
        """The window of ``snapshot``'s query, rebuilt from the object
        buffers; what fell behind its left edge can never again fall
        inside a window and is discarded first."""
        q, window_start = snapshot.query_time, snapshot.window_start
        if not self._inputs_sorted:
            self._events.sort(key=lambda e: e.time)
            self._facts.sort(key=lambda f: f.time)
            self._inputs_sorted = True
        self._events = [e for e in self._events if e.time > window_start]
        self._facts = [f for f in self._facts if f.time > window_start]
        previous = self._last_query

        events_by_type: dict[str, list[Event]] = defaultdict(list)
        for ev in self._events:
            if ev.time > q:
                break
            if ev.arrival <= q:
                events_by_type[ev.type].append(ev)
                snapshot.n_events += 1
                if previous is None or ev.arrival > previous:
                    snapshot.n_new_events += 1

        facts_by_key: dict[tuple[str, FluentKey], list[FluentFact]] = (
            defaultdict(list)
        )
        for fact in self._facts:
            if fact.time > q:
                break
            if fact.arrival <= q:
                facts_by_key[(fact.name, fact.key)].append(fact)

        return RuleContext(
            window_start=window_start,
            window_end=q,
            events=events_by_type,
            facts=facts_by_key,
            params=self.params,
        )
