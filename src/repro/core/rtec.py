"""The RTEC run-time event recognition engine (reproduction).

Implements the reasoning machinery described in Section 4.2 of the
paper: complex-event recognition is performed at successive *query
times* ``Q_1, Q_2, ...`` spaced ``step`` apart; at each query time only
the SDEs whose occurrence falls inside the *working memory* (window)
``(Q_i - WM, Q_i]`` — and that have *arrived* by ``Q_i`` — are taken
into consideration.  Making the window larger than the step lets the
engine account for SDEs that occurred before the previous query time
but arrived after it (the paper's Figure 2); windowing bounds the cost
of recognition by the window size rather than the full stream history.

Evaluation proceeds stratum by stratum over the definitions (see
:mod:`repro.core.rules`), and the value of each simple fluent at the
window's left edge is seeded from the previous evaluation cycle, which
carries the law of inertia across overlapping windows.

One evaluation loop serves every query: each definition is evaluated
over the *whole* window at every query time — nothing derived at an
earlier query is kept, except the inertia seed above.  The window is
arrays in a persistent working memory (:class:`repro.core.incremental.
WorkingMemory`): a query admits what has arrived, evicts what fell
behind the window's left edge, and the rule bodies read the stores —
compiled where the definition offers a vectorised form, interpreted
otherwise (``noisy``, ``congestionInTheMake``, ``noisyScats`` and
user-defined rules).

:class:`repro.core.reference.ReferenceRTEC` is the one other engine:
the same loop over a window rebuilt from buffered objects, kept while
the frozen benchmark's oracle selects it.
"""

from __future__ import annotations

import operator
import time as _time
from collections import defaultdict
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, Optional

from .columns import SDEColumns
from .events import Event, FluentFact, FluentKey, Occurrence
from .incremental import WorkingMemory
from .intervals import EFFECT_DELAY, IntervalList, make_intervals
from .rules import (
    Definition,
    DerivedEvent,
    RuleContext,
    SimpleFluent,
    StaticFluent,
    ValuedFluent,
    stratify,
)


@dataclass
class RecognitionSnapshot:
    """The result of one recognition step at a query time.

    Attributes
    ----------
    query_time:
        The query time ``Q_i``.
    window_start:
        ``Q_i - WM``; SDEs at or before this point were discarded.
    fluents:
        Computed maximal intervals per fluent name and grounding
        (``holdsFor``).
    occurrences:
        Recognised derived-event instances per CE name (``happensAt``).
    elapsed:
        CPU seconds spent on this recognition step (process time), the
        quantity reported in the paper's Figure 4.
    n_events:
        Number of input SDEs considered in the window.
    n_new_events:
        Number of those SDEs seen for the first time at this query —
        i.e. arrived after the previous query time.  With overlapping
        windows the same SDE is *considered* by several consecutive
        queries (and so counted in ``n_events`` each time); this field
        counts each SDE exactly once across a run.
    compiled_evals / compiled_fallbacks:
        Rule-compilation statistics, one count per definition per
        query: point-deriving definitions whose body a vectorised
        compiled evaluator ran, and point-deriving definitions whose
        body ran on the interpreter (no compiled form exists for
        them, or the engine compiles nothing: the reference engine).
    """

    query_time: int
    window_start: int
    fluents: dict[str, dict[FluentKey, IntervalList]] = field(
        default_factory=dict
    )
    occurrences: dict[str, list[Occurrence]] = field(default_factory=dict)
    elapsed: float = 0.0
    n_events: int = 0
    n_new_events: int = 0
    #: Always zero: nothing is cached across queries.  Kept only
    #: because the frozen ``benchmarks/e2e/tracing.py`` sums them into
    #: ``core.incremental.*``; they go with the benchmark revision of
    #: ROADMAP item 6.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidations: int = 0
    compiled_evals: int = 0
    compiled_fallbacks: int = 0
    #: Pending rows this query moved into the window, and pending rows
    #: it dropped because they occurred at or before the window start.
    rows_admitted: int = 0
    rows_skipped_horizon: int = 0
    #: Records (``Event``/``FluentFact``) this query built from the
    #: window's arrays — for an interpreted rule body; at most once per
    #: row in its life.
    rows_materialised: int = 0
    #: Rows whose evaluation columns (token codes, ``float64`` fields)
    #: this query filled (each admitted row of a type a compiled rule
    #: reads, once), and ``gps`` rows it decided the ``close`` join for
    #: (once per row per engine).
    mirror_rows_encoded: int = 0
    close_rows_decided: int = 0
    #: CPU seconds spent per definition (profiling breakdown).
    per_definition: dict[str, float] = field(default_factory=dict)

    #: Snapshot field -> run-metrics counter (``docs/observability.md``).
    COUNTERS = {
        "compiled_evals": "rtec.compiled.evals",
        "compiled_fallbacks": "rtec.compiled.fallbacks",
        "rows_admitted": "rtec.ingest.rows_admitted",
        "rows_skipped_horizon": "rtec.ingest.rows_skipped_horizon",
        "rows_materialised": "rtec.ingest.rows_materialised",
        "mirror_rows_encoded": "rtec.mirror.rows_encoded",
        "close_rows_decided": "rtec.close.rows_decided",
    }

    def record_counters(self, metrics) -> None:
        """Add this step's engine statistics to a
        :class:`repro.obs.Registry` — the one mapping behind the
        pipeline's registry and every shard worker's."""
        for attr, name in self.COUNTERS.items():
            metrics.counter(name).inc(getattr(self, attr))

    def intervals(self, name: str, key: FluentKey) -> IntervalList:
        """``holdsFor`` lookup on the snapshot."""
        return self.fluents.get(name, {}).get(key, IntervalList.empty())

    def holds_at(self, name: str, key: FluentKey, t: int) -> bool:
        """``holdsAt`` lookup on the snapshot."""
        return self.intervals(name, key).holds_at(t)

    def all_occurrences(self, name: str) -> list[Occurrence]:
        """All occurrences of derived event ``name`` in this window."""
        return self.occurrences.get(name, [])


#: ``(time, key)``: the order occurrence streams are kept in.
_occurrence_order = operator.attrgetter("time", "key")


class RTEC:
    """Windowed, stratified event-recognition engine.

    Parameters
    ----------
    definitions:
        The CE/fluent definitions to evaluate; they are stratified by
        their declared dependencies.
    window:
        Working-memory size ``WM`` in time-points.
    step:
        Distance between consecutive query times.  The paper recommends
        ``window > step`` when SDEs arrive with delays.
    params:
        Threshold/tuning parameters made available to rule bodies via
        :meth:`repro.core.rules.RuleContext.param`.
    start:
        Time-point of ``Q_0``; the first query time is ``start + step``.
    initially:
        Initial fluent state (the Event Calculus ``initially``
        predicate): ``{(fluent_name, grounding): value}`` — ``True``
        for boolean simple fluents, an arbitrary value for valued
        fluents.  Those fluents hold from before the first window until
        terminated.

    Definitions offering a vectorised evaluator
    (:meth:`repro.core.rules.Definition.compiled`) have their rule
    bodies lowered to array operations over the window's stores; the
    rest run interpreted over the same window.  Two compiled rules
    declaring different grounding-token layouts for one input type
    raise :class:`ValueError` here.

    Durability
    ----------
    Engines are checkpointed by :mod:`repro.recovery` through
    whole-object pickling.  The contract: all cross-query state — the
    persistent :class:`~.incremental.WorkingMemory` (including pending
    SDEs that have not yet *arrived*), the fluent-inertia cache that
    seeds each window's left edge, and the last query time — must
    round-trip through pickle such that the restored engine answers
    every subsequent ``query(q)`` identically to the original.  Nothing
    derived travels: no output point of an earlier query is state, the
    window is arrays — per row a sequence number and the cells it was
    fed with — and what is derived from them (token codes, evaluation
    columns, records) is rebuilt on first use.  Rule bodies must be
    module-level callables (pickled by reference).
    """

    def __init__(
        self,
        definitions: Sequence[Definition],
        *,
        window: int,
        step: int,
        params: Optional[Mapping[str, Any]] = None,
        start: int = 0,
        initially: Optional[Mapping[tuple[str, FluentKey], Any]] = None,
    ):
        if window <= 0 or step <= 0:
            raise ValueError("window and step must be positive")
        if step > window:
            raise ValueError(
                "step must not exceed the window: SDEs occurring between "
                "windows would never be considered"
            )
        self.window = window
        self.step = step
        self.params: dict[str, Any] = dict(params or {})
        self._definitions = stratify(definitions)
        self._start = start
        self._last_query: Optional[int] = None
        # The window: the persistent working memory.
        self._wm = WorkingMemory()
        # Rule compilation: definitions offering a vectorised evaluator
        # get their bodies lowered; the working memory is told the
        # columnar layouts those evaluators read, so its stores of
        # those types keep the evaluation columns with their rows.
        self._compiled: dict[str, Any] = {}
        for d in self._definitions:
            rule = d.compiled(self.params)
            if rule is None:
                continue
            self._compiled[d.name] = rule
            for (kind, name), cspec in rule.columns.items():
                self._wm.declare_columns(kind, name, cspec)
        #: last computed intervals per fluent name and grounding; seeds
        #: the value at the next window's left edge (inertia).  Valued
        #: fluents are cached under ``grounding + (value,)``; groundings
        #: whose intervals became empty are pruned.
        self._fluent_cache: dict[str, dict[FluentKey, IntervalList]] = {}
        #: names of the valued-fluent definitions (they extend keys).
        self._valued_names = {
            d.name for d in self._definitions if isinstance(d, ValuedFluent)
        }
        if initially:
            # The fluent holds from before any window's left edge.
            genesis = start + step - window - 1
            for (name, key), value in initially.items():
                if name in self._valued_names:
                    cache_key = tuple(key) + (value,)
                elif value is True:
                    cache_key = tuple(key)
                else:
                    raise ValueError(
                        "boolean fluents can only be initially True; "
                        f"got {value!r} for {name!r}"
                    )
                self._fluent_cache.setdefault(name, {})[cache_key] = (
                    IntervalList.single(genesis, None)
                )

    # ------------------------------------------------------------------
    # Input handling
    # ------------------------------------------------------------------
    def feed(
        self,
        events: Iterable[Event] = (),
        facts: Iterable[FluentFact] = (),
    ) -> None:
        """Buffer input SDEs and input-fluent facts.

        Inputs may be fed in any order; the engine honours arrival
        times when selecting window contents.  The working memory has
        one pending buffer, of arrays: the objects are grouped into
        per-type blocks (:meth:`~.columns.SDEColumns.from_sdes`) and
        numbered in that layout — type by type, each type in feed
        order, which is the order every working-memory column keeps.

        SDEs with a negative occurrence time are rejected: the scenario
        clock starts at 0, so a negative stamp is always a mediator bug
        (or an injected corruption) and silently accepting it would
        seed windows before time 0.  Whatever preceded the rejected
        record stays fed.
        """
        kept_events: list[Event] = []
        kept_facts: list[FluentFact] = []
        try:
            for ev in events:
                if ev.time < 0:
                    raise ValueError(
                        f"event of type {ev.type!r} occurs at negative "
                        f"time {ev.time}; SDE timestamps must be >= 0"
                    )
                kept_events.append(ev)
            for fact in facts:
                if fact.time < 0:
                    raise ValueError(
                        f"fluent fact {fact.name!r} occurs at negative "
                        f"time {fact.time}; SDE timestamps must be >= 0"
                    )
                kept_facts.append(fact)
        finally:
            self._wm.buffer_columns(
                SDEColumns.from_sdes(kept_events, kept_facts)
            )

    def feed_columns(self, batch: SDEColumns) -> None:
        """Buffer a columnar SDE batch (:class:`~.columns.SDEColumns`).

        The batch counterpart of :meth:`feed`: validation (no negative
        occurrence time, no arrival before the occurrence) runs
        vectorised over the batch's time arrays, and the batch enters
        the working memory's pending buffer as arrays, from which a
        query admits rows into the window by reference — no
        :class:`Event` object is built on the way.
        """
        batch.validate()
        self._wm.buffer_columns(batch)

    def mark_stream_fed(self) -> None:
        """Declare the initial input stream fully fed (see
        :meth:`repro.core.incremental.WorkingMemory.mark_stream_boundary`).

        Checkpoints written in streamless mode then drop the pending
        part of that stream and regenerate it on restore; SDEs fed
        after this call (crowd feedback) are snapshotted verbatim.
        """
        self._wm.mark_stream_boundary()

    def refill_columns(self, batch: SDEColumns, admitted_through: int) -> None:
        """Rebuild the pending buffer of a streamless checkpoint from
        the regenerated initial stream, fed as it originally was via
        :meth:`feed_columns`."""
        self._wm.refill_columns(batch, admitted_through)

    # ------------------------------------------------------------------
    # Recognition
    # ------------------------------------------------------------------
    def query(self, q: int) -> RecognitionSnapshot:
        """Perform one recognition step at query time ``q``.

        Only SDEs with occurrence in ``(q - window, q]`` that have
        arrived by ``q`` are considered; everything older is discarded
        (the paper's working-memory semantics).  Every definition is
        evaluated over that whole window.
        """
        if self._last_query is not None and q <= self._last_query:
            raise ValueError(
                f"query times must be increasing: {q} <= {self._last_query}"
            )
        snapshot = RecognitionSnapshot(
            query_time=q, window_start=q - self.window
        )
        wm = self._wm
        built, encoded = wm.rows_materialised, wm.rows_encoded
        decided = wm.rows_close_decided
        self._evaluate(self._window(snapshot), snapshot)
        snapshot.rows_materialised = wm.rows_materialised - built
        snapshot.mirror_rows_encoded = wm.rows_encoded - encoded
        snapshot.close_rows_decided = wm.rows_close_decided - decided
        self._last_query = q
        return snapshot

    def _window(self, snapshot: RecognitionSnapshot) -> RuleContext:
        """The window of ``snapshot``'s query, slid forward in the
        working memory: what has arrived is admitted, what fell out is
        evicted.  The window stays arrays — the context's record
        accessors build objects only for an interpreted body that
        asks."""
        wm = self._wm
        q, window_start = snapshot.query_time, snapshot.window_start
        admitted, skipped = wm.rows_admitted, wm.rows_skipped_horizon
        snapshot.n_new_events = wm.admit(q, window_start)
        wm.evict(window_start)
        snapshot.n_events = wm.n_events()
        snapshot.rows_admitted = wm.rows_admitted - admitted
        snapshot.rows_skipped_horizon = wm.rows_skipped_horizon - skipped
        return RuleContext(
            window_start=window_start,
            window_end=q,
            events={},
            facts={},
            params=self.params,
            columns=wm,
        )

    def _evaluate(
        self, ctx: RuleContext, snapshot: RecognitionSnapshot
    ) -> None:
        """Evaluate every definition, stratum by stratum, over the
        whole window ``ctx`` exposes — the one evaluation loop."""
        t0 = _time.process_time()
        for definition in self._definitions:
            d0 = _time.process_time()
            name = definition.name
            if isinstance(definition, StaticFluent):
                intervals = dict(definition.derive(ctx))
                ctx._store_fluent(name, intervals)
                snapshot.fluents[name] = intervals
            elif isinstance(definition, DerivedEvent):
                streams = self._extract_streams(definition, ctx, snapshot)
                # Stable: points tied on (time, key) stay in body order.
                occurrences = sorted(streams["occ"], key=_occurrence_order)
                ctx._store_occurrences(name, occurrences)
                snapshot.occurrences[name] = occurrences
            elif isinstance(definition, (SimpleFluent, ValuedFluent)):
                streams = self._extract_streams(definition, ctx, snapshot)
                build = (
                    self._valued_intervals
                    if isinstance(definition, ValuedFluent)
                    else self._simple_intervals
                )
                intervals = build(name, ctx, streams["init"], streams["term"])
                ctx._store_fluent(name, intervals)
                snapshot.fluents[name] = intervals
            else:  # pragma: no cover - guarded by the type system
                raise TypeError(f"unknown definition type: {definition!r}")
            snapshot.per_definition[name] = _time.process_time() - d0
        snapshot.elapsed = _time.process_time() - t0

    def _extract_streams(
        self,
        definition: Definition,
        ctx: RuleContext,
        snapshot: RecognitionSnapshot,
    ) -> dict[str, list[Any]]:
        """Run a definition's rule bodies, as point streams.

        Definitions with a compiled evaluator take the vectorised path
        over the window's stores; everything else runs the interpreted
        bodies.  The snapshot's ``compiled_evals`` /
        ``compiled_fallbacks`` counters record which path served the
        definition.
        """
        rule = self._compiled.get(definition.name)
        if rule is not None:
            snapshot.compiled_evals += 1
            return rule.derive(ctx)
        snapshot.compiled_fallbacks += 1
        if isinstance(definition, DerivedEvent):
            return {"occ": list(definition.occurrences(ctx))}
        return {
            "init": list(definition.initiations(ctx)),
            "term": list(definition.terminations(ctx)),
        }

    # -- fluent interval assembly ---------------------------------------
    def _simple_intervals(
        self,
        name: str,
        ctx: RuleContext,
        init_points: Iterable[tuple[FluentKey, int]],
        term_points: Iterable[tuple[FluentKey, int]],
    ) -> dict[FluentKey, IntervalList]:
        """Build a simple fluent's maximal intervals from its
        initiation/termination points, seeding inertia from the cache.

        The seed is the fluent's value at the *first time-point of the
        new window* (``window_start + EFFECT_DELAY``): events at or
        before the window start are discarded, so the previous
        evaluation — which knew all of them — is the authority on that
        point.  When the fluent was holding, the episode keeps its
        historical start from the cached interval (RTEC's interval
        retention), so an episode longer than the window is not
        re-reported with an artificial start at every slide.
        """
        inits: dict[FluentKey, list[int]] = defaultdict(list)
        terms: dict[FluentKey, list[int]] = defaultdict(list)
        for key, t in init_points:
            inits[key].append(t)
        for key, t in term_points:
            terms[key].append(t)

        seed_point = ctx.window_start + EFFECT_DELAY
        cache = self._fluent_cache.setdefault(name, {})
        keys = set(inits) | set(terms)
        # Keys quiescent in this window persist by inertia if their
        # cached intervals still hold at the seed point.
        for key, cached in cache.items():
            if key not in keys and cached.holds_at(seed_point):
                keys.add(key)

        out: dict[FluentKey, IntervalList] = {}
        for key in keys:
            cached = cache.get(key, IntervalList.empty())
            seed_interval = cached.interval_at(seed_point)
            intervals = make_intervals(
                inits.get(key, ()),
                terms.get(key, ()),
                holding_at_start=seed_interval is not None,
                window_start=(
                    seed_interval[0]
                    if seed_interval is not None
                    else ctx.window_start
                ),
            )
            if intervals:
                cache[key] = intervals
                out[key] = intervals
            else:
                cache.pop(key, None)
        return out

    def _valued_intervals(
        self,
        name: str,
        ctx: RuleContext,
        init_points: Iterable[tuple[FluentKey, Any, int]],
        term_points: Iterable[tuple[FluentKey, Any, int]],
    ) -> dict[FluentKey, IntervalList]:
        """Build a multi-valued fluent's intervals from its points.

        A grounding holds one value at a time: initiating ``F = V``
        implicitly terminates the previously held value.  Results (and
        the cache) are stored under ``grounding + (value,)``.  At one
        time-point, explicit terminations apply before initiations, and
        among several initiated values the largest (sorted order) wins.
        """
        inits: dict[FluentKey, list[tuple[int, Any]]] = defaultdict(list)
        terms: dict[FluentKey, set[tuple[int, Any]]] = defaultdict(set)
        for key, value, t in init_points:
            inits[key].append((t, value))
        for key, value, t in term_points:
            terms[key].add((t, value))

        seed_point = ctx.window_start + EFFECT_DELAY
        cache = self._fluent_cache.setdefault(name, {})
        base_keys = set(inits) | set(terms)
        cached_by_base: dict[FluentKey, list[tuple[FluentKey, IntervalList]]]
        cached_by_base = defaultdict(list)
        for stored_key, cached in cache.items():
            if stored_key:
                cached_by_base[stored_key[:-1]].append((stored_key, cached))
                if cached.holds_at(seed_point):
                    base_keys.add(stored_key[:-1])

        out: dict[FluentKey, IntervalList] = {}
        for key in base_keys:
            # Seed: the value (and historical episode start) held at the
            # first point of the window, from the previous evaluation.
            state: Any = None
            state_start = ctx.window_start
            for stored_key, cached in cached_by_base.get(key, ()):
                seed_interval = cached.interval_at(seed_point)
                if seed_interval is not None:
                    state = stored_key[-1]
                    state_start = seed_interval[0]
                    break

            inits_by_t: dict[int, list[Any]] = defaultdict(list)
            for t, value in inits.get(key, ()):
                inits_by_t[t].append(value)
            key_terms = terms.get(key, set())
            points = sorted(inits_by_t.keys() | {t for t, _ in key_terms})
            spans: dict[Any, list[tuple[int, Optional[int]]]] = defaultdict(
                list
            )
            for t in points:
                terminated = state is not None and (t, state) in key_terms
                initiated = sorted(inits_by_t.get(t, ()))
                new_state = state
                if terminated:
                    new_state = None
                if initiated:
                    # Termination applies first; a simultaneous
                    # initiation then takes over (largest value wins).
                    new_state = initiated[-1]
                if new_state != state:
                    if state is not None:
                        spans[state].append((state_start, t + EFFECT_DELAY))
                    state = new_state
                    state_start = t + EFFECT_DELAY
            if state is not None:
                spans[state].append((state_start, None))

            # Refresh the cache for every previously known value of this
            # grounding, then store the new spans.
            for stored_key, _ in cached_by_base.get(key, ()):
                cache.pop(stored_key, None)
            for value, intervals in spans.items():
                extended = key + (value,)
                interval_list = IntervalList(intervals)
                if interval_list:
                    cache[extended] = interval_list
                    out[extended] = interval_list
        return out

    def cached_intervals(self, name: str, key: FluentKey) -> IntervalList:
        """The last computed intervals of a fluent grounding.

        Inspection API for operators/tests between query times; for
        valued fluents pass the extended ``key + (value,)`` grounding.
        """
        return self._fluent_cache.get(name, {}).get(
            tuple(key), IntervalList.empty()
        )

    def currently_holds(self, name: str, key: FluentKey) -> bool:
        """Whether the fluent was holding at the last query time
        (``False`` before any query or for unknown groundings)."""
        if self._last_query is None:
            return False
        return self.cached_intervals(name, key).holds_at(self._last_query)

    def run(self, until: int) -> Iterable[RecognitionSnapshot]:
        """Run recognition at every query time up to ``until``.

        Yields one :class:`RecognitionSnapshot` per query time
        ``Q_i = start + i * step`` with ``Q_i <= until``.
        """
        q = self._start + self.step if self._last_query is None else (
            self._last_query + self.step
        )
        while q <= until:
            yield self.query(q)
            q += self.step


class RecognitionLog:
    """Accumulates snapshots and extracts *fresh* results.

    With overlapping windows the same CE occurrence is recognised by
    several consecutive queries; downstream consumers (the
    crowdsourcing component, the operator console) want each instance
    once.  The log deduplicates occurrences by ``(type, key, time)`` and
    fluent episodes by ``(name, key, interval start)``.
    """

    def __init__(self) -> None:
        self.snapshots: list[RecognitionSnapshot] = []
        self._seen_occurrences: set[tuple[str, FluentKey, int]] = set()
        self._seen_episodes: set[tuple[str, FluentKey, int]] = set()

    def add(self, snapshot: RecognitionSnapshot) -> "FreshResults":
        """Record a snapshot and return what is new in it."""
        self.snapshots.append(snapshot)
        fresh_occurrences: list[Occurrence] = []
        for name, occurrences in snapshot.occurrences.items():
            for occ in occurrences:
                token = (name, occ.key, occ.time)
                if token not in self._seen_occurrences:
                    self._seen_occurrences.add(token)
                    fresh_occurrences.append(occ)
        fresh_episodes: list[tuple[str, FluentKey, int, Optional[int]]] = []
        for name, by_key in snapshot.fluents.items():
            for key, intervals in by_key.items():
                for start, end in intervals:
                    token = (name, key, start)
                    if token not in self._seen_episodes:
                        self._seen_episodes.add(token)
                        fresh_episodes.append((name, key, start, end))
        return FreshResults(fresh_occurrences, fresh_episodes)

    @property
    def total_elapsed(self) -> float:
        """Total CPU seconds across all recorded snapshots."""
        return sum(s.elapsed for s in self.snapshots)

    @property
    def mean_elapsed(self) -> float:
        """Mean CPU seconds per recognition step (Figure 4's metric)."""
        if not self.snapshots:
            return 0.0
        return self.total_elapsed / len(self.snapshots)


@dataclass
class FreshResults:
    """New occurrences/episodes surfaced by one recognition step."""

    occurrences: list[Occurrence]
    episodes: list[tuple[str, FluentKey, int, Optional[int]]]

    def of_type(self, name: str) -> list[Occurrence]:
        """Fresh occurrences of CE ``name``."""
        return [o for o in self.occurrences if o.type == name]

    def episodes_of(
        self, name: str
    ) -> list[tuple[str, FluentKey, int, Optional[int]]]:
        """Fresh fluent episodes of fluent ``name``."""
        return [e for e in self.episodes if e[0] == name]
