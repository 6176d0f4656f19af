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
arrays in a persistent working memory (:class:`repro.core.window.
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
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .columns import SDEColumns
from .events import Event, FluentFact, FluentKey, Occurrence
from .window import WorkingMemory
from .intervals import (
    EFFECT_DELAY,
    IntervalList,
    encode_points,
    simple_intervals,
    valued_intervals,
)
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


def _groundings_seen(
    streams: Mapping[str, Any]
) -> tuple[
    dict[int, FluentKey], dict[FluentKey, int], list[FluentKey], list[FluentKey]
]:
    """The groundings of a fluent's point streams: ``{code:
    grounding}``, each looked up in the streams' table once, its
    inverse, and per stream (``init``, ``term``) its groundings in the
    order they first appear in it.  Codes must be one-to-one with
    groundings (:meth:`~.compiled.CompiledRule.derive`)."""
    lookup = streams["groundings"]
    key_of: dict[int, FluentKey] = {}
    seen = []
    for stream in ("init", "term"):
        distinct, first = np.unique(streams[stream][0], return_index=True)
        in_order = distinct[np.argsort(first)].tolist()
        for code in in_order:
            if code not in key_of:
                key_of[code] = lookup(code)
        seen.append([key_of[code] for code in in_order])
    code_of = {key: code for code, key in key_of.items()}
    if len(code_of) != len(key_of):
        raise ValueError("a fluent's point streams give one grounding two codes")
    return key_of, code_of, seen[0], seen[1]


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
    persistent :class:`~.window.WorkingMemory` (including pending
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
        :meth:`repro.core.window.WorkingMemory.mark_stream_boundary`).

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
                intervals = build(name, ctx, streams)
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
    ) -> dict[str, Any]:
        """Run a definition's rule bodies, as point streams.

        Definitions with a compiled evaluator take the vectorised path
        over the window's stores; everything else runs the interpreted
        bodies, whose fluent points are encoded into the arrays a
        compiled body returns (:func:`~.intervals.encode_points`), so
        that every fluent reaches the same interval functions.  The
        snapshot's ``compiled_evals`` / ``compiled_fallbacks`` counters
        record which path served the definition.
        """
        rule = self._compiled.get(definition.name)
        if rule is not None:
            snapshot.compiled_evals += 1
            return rule.derive(ctx)
        snapshot.compiled_fallbacks += 1
        if isinstance(definition, DerivedEvent):
            return {"occ": list(definition.occurrences(ctx))}
        return encode_points(
            list(definition.initiations(ctx)),
            list(definition.terminations(ctx)),
            valued=isinstance(definition, ValuedFluent),
        )

    # -- fluent interval assembly ---------------------------------------
    #
    # The intervals themselves come from the array functions
    # (:func:`~.intervals.simple_intervals` /
    # :func:`~.intervals.valued_intervals`).  What is left here is
    # seeding inertia from the cache and putting the output in order.
    # The order is output: the iteration order of ``snapshot.fluents
    # [name]`` is the order ``RecognitionLog.add`` hands fresh episodes
    # to the alerts and to the crowd's shared RNG, and the cache's
    # order is where the next query's comes from.  Both are the order
    # of a ``set`` of groundings (ROADMAP finding F5: it moves with
    # ``PYTHONHASHSEED``), and that set is built exactly as the
    # point-by-point loops before the array form built it — ``set(init
    # groundings) | set(term groundings)``, each a *list* in first-
    # appearance order (a ``set`` of a ``dict`` is presized and
    # iterates differently), then the quiescent cached groundings
    # ``add``-ed in cache order — and the cache is mutated in that
    # order.  ``tests/golden/fluent_order_digests.json`` pins it.
    def _simple_intervals(
        self, name: str, ctx: RuleContext, streams: Mapping[str, Any]
    ) -> dict[FluentKey, IntervalList]:
        """Build a simple fluent's maximal intervals from its point
        arrays, seeding inertia from the cache.

        The seed is the fluent's value at the *first time-point of the
        new window* (``window_start + EFFECT_DELAY``): events at or
        before the window start are discarded, so the previous
        evaluation — which knew all of them — is the authority on that
        point.  When the fluent was holding, the episode keeps its
        historical start from the cached interval (RTEC's interval
        retention), so an episode longer than the window is not
        re-reported with an artificial start at every slide.  A
        grounding without points that held there holds on.
        """
        key_of, code_of, init_keys, term_keys = _groundings_seen(streams)
        seed_point = ctx.window_start + EFFECT_DELAY
        cache = self._fluent_cache.setdefault(name, {})
        keys = set(init_keys) | set(term_keys)
        seeds: tuple[list[int], list[int]] = ([], [])
        found: dict[FluentKey, IntervalList] = {}
        for key, cached in cache.items():
            held = cached.interval_at(seed_point)
            if held is None:
                continue
            keys.add(key)
            code = code_of.get(key)
            if code is None:
                found[key] = IntervalList.single(held[0], None)
            else:
                seeds[0].append(code)
                seeds[1].append(held[0])
        built = simple_intervals(streams["init"], streams["term"], seeds)
        for code, intervals in built.items():
            found[key_of[code]] = intervals

        out: dict[FluentKey, IntervalList] = {}
        for key in keys:
            intervals = found.get(key)
            if intervals:
                cache[key] = intervals
                out[key] = intervals
            else:
                cache.pop(key, None)
        return out

    def _valued_intervals(
        self, name: str, ctx: RuleContext, streams: Mapping[str, Any]
    ) -> dict[FluentKey, IntervalList]:
        """Build a multi-valued fluent's intervals from its point
        arrays.

        A grounding holds one value at a time: initiating ``F = V``
        implicitly terminates the previously held value.  Results (and
        the cache) are stored under ``grounding + (value,)``.  At one
        time-point, explicit terminations apply before initiations, and
        among several initiated values the largest (sorted order) wins.
        The seed of a grounding is the first of its cached values (in
        cache order) that held at the window's first time-point.
        """
        key_of, code_of, init_keys, term_keys = _groundings_seen(streams)
        seed_point = ctx.window_start + EFFECT_DELAY
        cache = self._fluent_cache.setdefault(name, {})
        base_keys = set(init_keys) | set(term_keys)
        stored_by_base: dict[FluentKey, list[FluentKey]] = {}
        seed_of: dict[FluentKey, tuple[Any, int]] = {}
        for stored_key, cached in cache.items():
            base = stored_key[:-1]
            stored_by_base.setdefault(base, []).append(stored_key)
            held = cached.interval_at(seed_point)
            if held is not None:
                base_keys.add(base)
                seed_of.setdefault(base, (stored_key[-1], held[0]))

        values = list(streams["values"])
        value_code = {value: code for code, value in enumerate(values)}
        seeds: tuple[list[int], list[int], list[int]] = ([], [], [])
        found: dict[FluentKey, list[tuple[Any, IntervalList]]] = {}
        for base, (value, start) in seed_of.items():
            code = code_of.get(base)
            if code is None:
                found[base] = [(value, IntervalList.single(start, None))]
                continue
            if value not in value_code:
                value_code[value] = len(values)
                values.append(value)
            seeds[0].append(code)
            seeds[1].append(value_code[value])
            seeds[2].append(start)
        built = valued_intervals(
            streams["init"], streams["term"], seeds, values
        )
        for code, spans in built.items():
            found[key_of[code]] = [
                (values[value], intervals) for value, intervals in spans
            ]

        out: dict[FluentKey, IntervalList] = {}
        for base in base_keys:
            # Refresh the cache for every previously known value of this
            # grounding, then store the new spans.
            for stored_key in stored_by_base.get(base, ()):
                cache.pop(stored_key, None)
            for value, intervals in found.get(base, ()):
                if intervals:
                    extended = base + (value,)
                    cache[extended] = intervals
                    out[extended] = intervals
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
