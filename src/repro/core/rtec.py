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

Two evaluation modes share those semantics:

* the **legacy** mode (``incremental=False``) rebuilds the window
  contents and re-derives every definition from scratch at each query
  time — the direct transcription of the paper;
* the **incremental** mode (the default) keeps SDEs as arrays in a
  persistent working memory (:class:`repro.core.incremental.
  WorkingMemory`) that evicts by the window's left edge, and reuses
  each definition's output points from the previous query for the
  overlap ``[Q_i - window + step, Q_i]``, re-deriving only the newest
  ``step`` of data plus whatever late arrivals and upstream changes
  invalidated (see :mod:`repro.core.incremental` for the contract).
  Its output is identical to the legacy mode's — the golden-trace
  differential tests in ``tests/core/test_golden_trace.py`` pin that.
"""

from __future__ import annotations

import bisect
import operator
import time as _time
from collections import defaultdict
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, Hashable, Optional

import numpy as np

from .columns import SDEColumns
from .compiled import RowSelection
from .events import Event, FluentFact, FluentKey, Occurrence
from .incremental import (
    DefinitionState,
    IncrementalSpec,
    LateArrivals,
    RangeSet,
    TimeRange,
    WorkingMemory,
    changed_interval_ranges,
    changed_point_ranges,
    merge_ranges,
)
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
    cache_hits / cache_misses / cache_invalidations:
        Incremental-evaluation statistics: definitions that reused
        cached points for the window overlap, cacheable definitions
        that had to recompute in full, and reusing definitions whose
        cache was partially invalidated (late arrivals or upstream
        changes).  All zero in legacy mode.
    compiled_evals / compiled_fallbacks:
        Rule-compilation statistics: rule-body evaluation requests —
        one per full evaluation, and on a cache hit one per re-derived
        segment plus one for the dirty groundings — served by a
        vectorised compiled evaluator (which serves all of a query's
        requests in one pass), and requests of point-deriving
        definitions that fell back to the interpreter (no compiled form
        exists for them).  Both zero when compilation is disabled.
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
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidations: int = 0
    compiled_evals: int = 0
    compiled_fallbacks: int = 0
    #: Pending rows this query moved into the window, and pending rows
    #: it dropped because they occurred at or before the window start
    #: (both zero in legacy mode, which materialises a batch when it
    #: is fed).
    rows_admitted: int = 0
    rows_skipped_horizon: int = 0
    #: Records (``Event``/``FluentFact``) this query built from the
    #: window's arrays — for an interpreted rule body or a partition
    #: function; at most once per row in its life.  Zero in legacy
    #: mode.
    rows_materialised: int = 0
    #: Rows whose evaluation columns (token codes, ``float64`` fields)
    #: this query filled (each admitted row of a type a compiled rule
    #: reads, once), and ``gps`` rows it decided the ``close`` join for
    #: (once per row per engine).  Both zero in legacy mode.
    mirror_rows_encoded: int = 0
    close_rows_decided: int = 0
    #: CPU seconds spent per definition (profiling breakdown).
    per_definition: dict[str, float] = field(default_factory=dict)

    #: Snapshot field -> run-metrics counter (``docs/observability.md``).
    COUNTERS = {
        "cache_hits": "rtec.cache.hits",
        "cache_misses": "rtec.cache.misses",
        "cache_invalidations": "rtec.cache.invalidations",
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


#: time coordinate of an occurrence, for binary-searching sorted
#: occurrence streams (C-level accessor: the reuse scan is hot).
_occurrence_time = operator.attrgetter("time")

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
    incremental:
        When ``True`` (the default) SDEs are indexed into a persistent
        working memory and definition outputs are cached across the
        window overlap; ``False`` selects the legacy from-scratch
        evaluation.  Both modes produce identical recognition output.
    compiled:
        When ``True`` (the default) definitions offering a vectorised
        evaluator (:meth:`repro.core.rules.Definition.compiled`) have
        their rule bodies lowered to array operations over columnar
        views; ``False`` keeps every body on the interpreter.  The
        recognition output is identical either way (pinned by the
        parity suites); the flag exists for debugging and differential
        testing.

    Durability
    ----------
    Engines are checkpointed by :mod:`repro.recovery` through
    whole-object pickling.  The contract: all cross-query state — the
    persistent :class:`~.incremental.WorkingMemory` (including pending
    SDEs that have not yet *arrived*), the per-definition cached
    streams/change ranges (:class:`~.incremental.DefinitionState`), the
    fluent-inertia cache that seeds each window's left edge, and the
    last query time — must round-trip through pickle such that the
    restored engine answers every subsequent ``query(q)`` identically
    to the original.  This requires rule bodies and grounding-partition
    functions to be module-level callables (pickled by reference); the
    window travels as arrays — per row a sequence number and the cells
    it was fed with — and what is derived from them (token codes,
    evaluation columns, records) is rebuilt on first use.
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
        incremental: bool = True,
        compiled: bool = True,
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
        self.incremental = bool(incremental)
        # Legacy input buffers (legacy mode only).
        self._events: list[Event] = []
        self._facts: list[FluentFact] = []
        self._inputs_sorted = True
        # Incremental state: the persistent working memory, each
        # definition's declared input contract and its cached points.
        self._wm = WorkingMemory() if self.incremental else None
        self._specs: dict[str, Optional[IncrementalSpec]] = {}
        self._states: dict[str, DefinitionState] = {}
        # Rule compilation: definitions offering a vectorised evaluator
        # get their bodies lowered; the working memory is told the
        # columnar layouts those evaluators read, so its stores of
        # those types keep the evaluation columns with their rows.
        self.compiled_rules = bool(compiled)
        self._compiled: dict[str, Any] = {}
        if self.compiled_rules:
            for d in self._definitions:
                rule = d.compiled(self.params)
                if rule is None:
                    continue
                self._compiled[d.name] = rule
                if self._wm is not None:
                    for (kind, name), cspec in rule.columns.items():
                        self._wm.declare_columns(kind, name, cspec)
        if self.incremental:
            for d in self._definitions:
                self._specs[d.name] = d.incremental_spec(self.params)
        #: definitions some *other* definition depends on: only their
        #: output diffs feed downstream invalidation, so ``changed`` is
        #: computed for them alone (for sinks it would be dead work).
        self._consumed = {
            dep for d in self._definitions for dep in d.depends_on
        }
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
        times when selecting window contents.  An incremental engine
        has one pending buffer, of arrays: the objects are grouped into
        per-type blocks (:meth:`~.columns.SDEColumns.from_sdes`) and
        numbered in that layout — type by type, each type in feed
        order, which is the order every working-memory column keeps.
        Legacy mode sorts its object buffers per query.

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
            if self._wm is not None:
                self._wm.buffer_columns(
                    SDEColumns.from_sdes(kept_events, kept_facts)
                )
            else:
                self._events.extend(kept_events)
                self._facts.extend(kept_facts)
                self._inputs_sorted = False

    def feed_columns(self, batch: SDEColumns) -> None:
        """Buffer a columnar SDE batch (:class:`~.columns.SDEColumns`).

        The batch counterpart of :meth:`feed`: validation (no negative
        occurrence time, no arrival before the occurrence) runs
        vectorised over the batch's time arrays, and in incremental
        mode the batch enters the working memory's pending buffer as
        arrays, from which a query admits rows into the window by
        reference — no :class:`Event` object is built on the way.
        Legacy engines materialise the batch into their object buffers
        (their whole evaluation is object-based).
        """
        batch.validate()
        if self._wm is not None:
            self._wm.buffer_columns(batch)
        elif batch.n:
            self._events.extend(batch.iter_events())
            self._facts.extend(batch.iter_facts())
            self._inputs_sorted = False

    def mark_stream_fed(self) -> None:
        """Declare the initial input stream fully fed (see
        :meth:`repro.core.incremental.WorkingMemory.mark_stream_boundary`).

        Checkpoints written in streamless mode then drop the pending
        part of that stream and regenerate it on restore; SDEs fed
        after this call (crowd feedback) are snapshotted verbatim.
        Legacy (non-incremental) engines keep full snapshots and ignore
        the marker.
        """
        if self._wm is not None:
            self._wm.mark_stream_boundary()

    def refill_columns(self, batch: SDEColumns, admitted_through: int) -> None:
        """Rebuild the pending buffer of a streamless checkpoint from
        the regenerated initial stream, fed as it originally was via
        :meth:`feed_columns` (no-op for legacy engines, whose
        snapshots are always complete)."""
        if self._wm is not None:
            self._wm.refill_columns(batch, admitted_through)

    def _ensure_sorted(self) -> None:
        if not self._inputs_sorted:
            self._events.sort(key=lambda e: e.time)
            self._facts.sort(key=lambda f: f.time)
            self._inputs_sorted = True

    def _prune(self, horizon: int) -> None:
        """Discard inputs that can never again fall inside a window."""
        self._events = [e for e in self._events if e.time > horizon]
        self._facts = [f for f in self._facts if f.time > horizon]

    # ------------------------------------------------------------------
    # Recognition
    # ------------------------------------------------------------------
    def query(self, q: int) -> RecognitionSnapshot:
        """Perform one recognition step at query time ``q``.

        Only SDEs with occurrence in ``(q - window, q]`` that have
        arrived by ``q`` are considered; everything older is discarded
        (the paper's working-memory semantics).
        """
        if self._last_query is not None and q <= self._last_query:
            raise ValueError(
                f"query times must be increasing: {q} <= {self._last_query}"
            )
        if self._wm is not None:
            return self._query_incremental(q)
        return self._query_legacy(q)

    # -- legacy mode ---------------------------------------------------
    def _query_legacy(self, q: int) -> RecognitionSnapshot:
        self._ensure_sorted()
        window_start = q - self.window
        previous = self._last_query

        events_by_type: dict[str, list[Event]] = defaultdict(list)
        n_events = 0
        n_new_events = 0
        for ev in self._events:
            if ev.time <= window_start:
                continue
            if ev.time > q:
                break
            if ev.arrival <= q:
                events_by_type[ev.type].append(ev)
                n_events += 1
                if previous is None or ev.arrival > previous:
                    n_new_events += 1

        facts_by_key: dict[tuple[str, FluentKey], list[FluentFact]] = (
            defaultdict(list)
        )
        for fact in self._facts:
            if fact.time <= window_start:
                continue
            if fact.time > q:
                break
            if fact.arrival <= q:
                facts_by_key[(fact.name, fact.key)].append(fact)

        ctx = RuleContext(
            window_start=window_start,
            window_end=q,
            events=events_by_type,
            facts=facts_by_key,
            params=self.params,
        )

        snapshot = RecognitionSnapshot(
            query_time=q,
            window_start=window_start,
            n_events=n_events,
            n_new_events=n_new_events,
        )
        t0 = _time.process_time()
        for definition in self._definitions:
            d0 = _time.process_time()
            if isinstance(definition, StaticFluent):
                intervals = dict(definition.derive(ctx))
                ctx._store_fluent(definition.name, intervals)
                snapshot.fluents[definition.name] = intervals
            elif isinstance(definition, DerivedEvent):
                streams = self._extract_streams(definition, ctx, snapshot)
                occurrences = sorted(streams["occ"], key=_occurrence_order)
                ctx._store_occurrences(definition.name, occurrences)
                snapshot.occurrences[definition.name] = occurrences
            elif isinstance(definition, (SimpleFluent, ValuedFluent)):
                streams = self._extract_streams(definition, ctx, snapshot)
                if isinstance(definition, ValuedFluent):
                    intervals = self._valued_intervals(
                        definition.name, ctx, streams["init"], streams["term"]
                    )
                else:
                    intervals = self._simple_intervals(
                        definition.name, ctx, streams["init"], streams["term"]
                    )
                ctx._store_fluent(definition.name, intervals)
                snapshot.fluents[definition.name] = intervals
            else:  # pragma: no cover - guarded by the type system
                raise TypeError(f"unknown definition type: {definition!r}")
            snapshot.per_definition[definition.name] = (
                _time.process_time() - d0
            )
        snapshot.elapsed = _time.process_time() - t0

        self._last_query = q
        self._prune(window_start)
        return snapshot

    # -- incremental mode ----------------------------------------------
    def _query_incremental(self, q: int) -> RecognitionSnapshot:
        window_start = q - self.window
        previous = self._last_query

        wm = self._wm
        admitted_before = wm.rows_admitted
        skipped_before = wm.rows_skipped_horizon
        built, encoded = wm.rows_materialised, wm.rows_encoded
        decided = wm.rows_close_decided
        admitted = wm.admit(q, window_start)
        wm.evict(window_start)
        # Delayed SDEs: first seen now, but occurred inside the
        # previous window's overlap — they invalidate cached points.
        late = LateArrivals(wm, admitted, previous)

        # The window stays arrays: the context's record accessors
        # build objects only for an interpreted body that asks.
        ctx = RuleContext(
            window_start=window_start,
            window_end=q,
            events={},
            facts={},
            params=self.params,
            columns=wm,
        )

        snapshot = RecognitionSnapshot(
            query_time=q,
            window_start=window_start,
            n_events=wm.n_events(),
            n_new_events=sum(
                len(times)
                for (kind, _), (times, _) in admitted.items()
                if kind == "event"
            ),
            rows_admitted=wm.rows_admitted - admitted_before,
            rows_skipped_horizon=wm.rows_skipped_horizon - skipped_before,
        )
        #: restricted contexts built this query, shared across
        #: definitions keyed by their (lo, hi] input range and the
        #: input types they declare.
        range_contexts: dict[tuple, RuleContext] = {}
        #: dirty-grounding contexts built this query, shared across
        #: definitions with identical declared inputs (and hence
        #: identical per-token slices of the working memory).
        token_contexts: dict[Hashable, RuleContext] = {}
        #: occurrence-time arrays per already-evaluated derived event,
        #: for bisecting upstream slices into restricted contexts.
        occ_times: dict[str, list[int]] = {}
        overlap_lo = window_start + 1

        t0 = _time.process_time()
        for definition in self._definitions:
            d0 = _time.process_time()
            name = definition.name
            state = self._states.get(name)
            if state is None:
                state = self._states[name] = DefinitionState()

            if isinstance(definition, StaticFluent):
                # Statically-determined fluents are pure interval
                # algebra over their dependencies — recomputed in full
                # (the algebra is cheap; the expensive part is the
                # point derivation upstream, which *is* cached).
                out = dict(definition.derive(ctx))
                ctx._store_fluent(name, out)
                snapshot.fluents[name] = out
                state.changed = (
                    []
                    if previous is None or name not in self._consumed
                    else changed_interval_ranges(
                        state.prev_out or {}, out, overlap_lo, previous
                    )
                )
                state.prev_out = out
                state.streams = None
                state.stream_times = None
            elif isinstance(definition, DerivedEvent):
                old = state.streams
                #: only a consumed definition publishes where it changed
                publishes = previous is not None and name in self._consumed
                streams, replaced = self._definition_streams(
                    definition, state, ctx, q, window_start, previous,
                    late, snapshot, range_contexts, token_contexts,
                    occ_times, track=publishes,
                )
                occurrences = sorted(streams["occ"], key=_occurrence_order)
                streams["occ"] = occurrences
                ctx._store_occurrences(name, occurrences)
                snapshot.occurrences[name] = occurrences
                if not publishes:
                    state.changed = []
                elif old is None:
                    state.changed = [(overlap_lo, previous)]
                else:
                    # Reused points are the same objects on both sides
                    # and cannot differ: the diff runs over the cached
                    # points that were dropped and the points that
                    # were derived — all of them after a full
                    # recomputation — both in stream order, so that
                    # unchanged points meet their equals.
                    dropped, derived = replaced or (old["occ"], occurrences)
                    state.changed = changed_point_ranges(
                        (
                            o for o in dropped
                            if window_start < o.time <= previous
                        ),
                        sorted(
                            (o for o in derived if o.time <= previous),
                            key=_occurrence_order,
                        ),
                        overlap_lo,
                        previous,
                    )
                state.streams = streams
                state.stream_times = None
            else:  # SimpleFluent / ValuedFluent
                streams, _ = self._definition_streams(
                    definition, state, ctx, q, window_start, previous,
                    late, snapshot, range_contexts, token_contexts,
                    occ_times,
                )
                if isinstance(definition, ValuedFluent):
                    out = self._valued_intervals(
                        name, ctx, streams["init"], streams["term"]
                    )
                elif isinstance(definition, SimpleFluent):
                    out = self._simple_intervals(
                        name, ctx, streams["init"], streams["term"]
                    )
                else:  # pragma: no cover - guarded by the type system
                    raise TypeError(
                        f"unknown definition type: {definition!r}"
                    )
                ctx._store_fluent(name, out)
                snapshot.fluents[name] = out
                state.changed = (
                    []
                    if previous is None or name not in self._consumed
                    else changed_interval_ranges(
                        state.prev_out or {}, out, overlap_lo, previous
                    )
                )
                state.prev_out = out
                state.streams = streams
                state.stream_times = None
            snapshot.per_definition[name] = _time.process_time() - d0
        snapshot.elapsed = _time.process_time() - t0
        snapshot.rows_materialised = wm.rows_materialised - built
        snapshot.mirror_rows_encoded = wm.rows_encoded - encoded
        snapshot.close_rows_decided = wm.rows_close_decided - decided

        self._last_query = q
        return snapshot

    def _extract_streams(
        self,
        definition: Definition,
        ctx: RuleContext,
        snapshot: Optional[RecognitionSnapshot] = None,
    ) -> dict[str, list[Any]]:
        """Run a definition's rule bodies, as point streams.

        Definitions with a compiled evaluator take the vectorised path
        over the context's columnar views; everything else runs the
        interpreted bodies.  The snapshot's ``compiled_evals`` /
        ``compiled_fallbacks`` counters record which path served each
        evaluation.
        """
        rule = self._compiled.get(definition.name)
        if rule is not None:
            if snapshot is not None:
                snapshot.compiled_evals += 1
            return rule.derive(ctx)
        if snapshot is not None and self.compiled_rules:
            snapshot.compiled_fallbacks += 1
        if isinstance(definition, DerivedEvent):
            return {"occ": list(definition.occurrences(ctx))}
        return {
            "init": list(definition.initiations(ctx)),
            "term": list(definition.terminations(ctx)),
        }

    @staticmethod
    def _stream_times(definition: Definition):
        """Per-stream accessors for a point's time coordinate."""
        if isinstance(definition, DerivedEvent):
            occ_time = lambda pt: pt.time  # noqa: E731
            return {"occ": occ_time}
        if isinstance(definition, ValuedFluent):
            triple_time = lambda pt: pt[2]  # noqa: E731
            return {"init": triple_time, "term": triple_time}
        pair_time = lambda pt: pt[1]  # noqa: E731
        return {"init": pair_time, "term": pair_time}

    def _definition_streams(
        self,
        definition: Definition,
        state: DefinitionState,
        ctx: RuleContext,
        q: int,
        window_start: int,
        previous: Optional[int],
        late: LateArrivals,
        snapshot: RecognitionSnapshot,
        range_contexts: dict[tuple[int, int], RuleContext],
        token_contexts: dict[Hashable, RuleContext],
        occ_times: dict[str, list[int]],
        track: bool = False,
    ) -> tuple[dict[str, list[Any]], Optional[tuple[list, list]]]:
        """This query's output points, reusing the previous query's
        where the definition's incremental contract proves them stable.

        Returns the streams and — for a derived event, when ``track``
        is set and cached points were reused — what the reuse replaced:
        the cached occurrences it dropped and the occurrences it
        derived.  ``None`` there means everything was derived anew.

        The window splits into three regions around the cached points:

        * a *head* ``(window_start, window_start + lookback)`` whose
          points saw deeper history last query than the new window
          retains — re-derived against the truncated window, exactly
          as the legacy engine would;
        * a *middle* ``[window_start + lookback, previous - lookahead]``
          reused from the cache, minus invalidated *bands* (widened
          time ranges around late arrivals and upstream output
          changes) and *dirty groundings* (partitioned definitions
          re-derive only the groundings a late arrival touched);
        * a *tail* ``(previous - lookahead, q]`` covering the new data,
          plus the points whose lookahead now reaches inputs that did
          not exist at the previous query.
        """
        spec = self._specs.get(definition.name)
        cacheable = (
            spec is not None
            and spec.lookback is not None
            and previous is not None
            and state.streams is not None
        )
        if cacheable:
            lookback = spec.lookback
            lookahead = spec.lookahead
            reuse_lo = window_start + max(lookback, 1)
            reuse_hi = previous - lookahead
            if reuse_lo > reuse_hi:
                # The overlap is thinner than the dependency horizon:
                # nothing cached is provably stable.
                cacheable = False
        if not cacheable:
            if spec is not None and spec.lookback is not None:
                snapshot.cache_misses += 1
            return self._extract_streams(definition, ctx, snapshot), None

        # -- what changed since the previous query -----------------
        partitioned = spec.partitioned
        rule = self._compiled.get(definition.name)
        changed_ranges: list[TimeRange] = []
        #: Groundings a late arrival touched: as the partition
        #: functions name them, from records — or, for a compiled
        #: definition, as their tokens, from the arrays.
        dirty: set[Hashable] = set()
        point_token = spec.point_partition
        if partitioned and rule is not None:
            point_token = lambda pt: rule.grounding_token(  # noqa: E731
                spec.point_partition(pt)
            )
        for dep in definition.depends_on:
            dep_state = self._states.get(dep)
            if dep_state is not None:
                changed_ranges.extend(dep_state.changed)
        for kind, names, partitions in (
            ("event", spec.event_types, spec.event_partition),
            ("fact", spec.fact_names, spec.fact_partition),
        ):
            for name in names:
                if not partitioned:
                    changed_ranges += late.ranges(kind, name)
                elif rule is not None:
                    dirty |= late.tokens(
                        kind, name, rule.columns[kind, name].token
                    )
                else:
                    dirty |= late.dirty(kind, name, partitions[name])
        # An input change at t affects points whose dependency band
        # (t - lookback, t + lookahead] contains it.
        bands = merge_ranges(
            ((a - lookahead, b + lookback) for a, b in changed_ranges),
            reuse_lo,
            reuse_hi,
        )
        snapshot.cache_hits += 1
        if bands or dirty:
            snapshot.cache_invalidations += 1

        segments: list[TimeRange] = []
        if lookback > 1:
            segments.append((window_start + 1, window_start + lookback - 1))
        segments.extend(bands)
        segments.append((reuse_hi + 1, q))
        segments = merge_ranges(segments, window_start + 1, q)

        band_set = RangeSet(bands)
        out: dict[str, list[Any]] = {s: [] for s in state.streams}
        dropped: list[Any] = []

        # Middle: reuse cached points outside the invalidated bands.
        # The loops are specialised per definition kind — a cached
        # window holds thousands of points and a per-point accessor
        # call would dominate the reuse path it exists to avoid.
        quiet = not bands and not dirty
        derived = isinstance(definition, DerivedEvent)
        t_index = 2 if isinstance(definition, ValuedFluent) else 1
        for sname, cached_points in state.streams.items():
            kept = out[sname]
            if derived:
                # Occurrence streams are cached (time, key)-sorted, so
                # the reusable range is a binary-searched slice.
                lo_i = bisect.bisect_left(
                    cached_points, reuse_lo, key=_occurrence_time
                )
                hi_i = bisect.bisect_right(
                    cached_points, reuse_hi, lo=lo_i, key=_occurrence_time
                )
                if track:
                    dropped += cached_points[:lo_i]
                    dropped += cached_points[hi_i:]
                if quiet:
                    out[sname] = cached_points[lo_i:hi_i]
                    continue
                for pt in cached_points[lo_i:hi_i]:
                    if (bands and pt.time in band_set) or (
                        dirty and point_token(pt) in dirty
                    ):
                        if track:
                            dropped.append(pt)
                    else:
                        kept.append(pt)
                continue
            # Fluent streams are unsorted point tuples; the time-range
            # and band filters run vectorised over a lazily built
            # (per-stream, per-query) int64 time array — the Python
            # loop only touches the surviving indices.
            if not cached_points:
                continue
            stream_times = state.stream_times
            if stream_times is None:
                stream_times = state.stream_times = {}
            ts = stream_times.get(sname)
            if ts is None:
                ts = stream_times[sname] = np.fromiter(
                    (pt[t_index] for pt in cached_points),
                    np.int64,
                    count=len(cached_points),
                )
            keep = (ts >= reuse_lo) & (ts <= reuse_hi)
            if bands:
                keep &= ~band_set.mask(ts)
            if dirty:
                for i in np.flatnonzero(keep).tolist():
                    pt = cached_points[i]
                    if point_token(pt) not in dirty:
                        kept.append(pt)
            else:
                kept.extend(
                    cached_points[i]
                    for i in np.flatnonzero(keep).tolist()
                )

        n_reused = len(out.get("occ", ()))
        if rule is not None:
            # A compiled body reads the whole window once and emits
            # the points at the rows the segments and the dirty
            # groundings select: no context, no call per segment.
            # One evaluation request per part, as the loops below
            # count them.
            snapshot.compiled_evals += len(segments) + bool(dirty)
            extracted = rule.derive(ctx, RowSelection(segments, dirty))
            for sname, points in extracted.items():
                out[sname] += points
        else:
            # An interpreted body runs per segment — head, bands, tail —
            # against a restricted context that contains every input a
            # point in the segment can see.
            times = self._stream_times(definition)
            for a, b in segments:
                rctx = self._range_context(
                    max(a - lookback, window_start),
                    min(b + lookahead, q),
                    spec,
                    ctx,
                    range_contexts,
                )
                self._inject_upstream(rctx, definition, ctx, occ_times)
                extracted = self._extract_streams(definition, rctx, snapshot)
                for sname, points in extracted.items():
                    time_of = times[sname]
                    kept = out[sname]
                    for pt in points:
                        t = time_of(pt)
                        if t < a or t > b:
                            continue
                        if dirty and point_token(pt) in dirty:
                            continue
                        kept.append(pt)

            # Dirty groundings: re-derive them over the whole window from
            # a context restricted to their own inputs.
            if dirty:
                rctx = self._token_context(
                    spec, dirty, window_start, q, ctx, token_contexts
                )
                self._inject_upstream(rctx, definition, ctx, occ_times)
                extracted = self._extract_streams(definition, rctx, snapshot)
                for sname, points in extracted.items():
                    kept = out[sname]
                    for pt in points:
                        if point_token(pt) in dirty:
                            kept.append(pt)
        if not (track and derived):
            return out, None
        return out, (dropped, out["occ"][n_reused:])

    def _range_context(
        self,
        lo: int,
        hi: int,
        spec: IncrementalSpec,
        ctx: RuleContext,
        range_contexts: dict[tuple, RuleContext],
    ) -> RuleContext:
        """A context over the inputs a definition declares
        (``spec.event_types`` / ``spec.fact_names``) with occurrence
        time in ``(lo, hi]``, sharing the full context's fluent
        results."""
        cache_key = (lo, hi, spec.event_types, spec.fact_names)
        rctx = range_contexts.get(cache_key)
        if rctx is not None:
            return rctx
        events: dict[str, list[Event]] = {}
        facts: dict[tuple[str, FluentKey], list[FluentFact]] = {}
        for etype in spec.event_types:
            store = self._wm.store("event", etype)
            if store is not None:
                selected = store.records(*store.bounds(lo, hi))
                if selected:
                    events[etype] = selected
        for fname in spec.fact_names:
            store = self._wm.store("fact", fname)
            if store is not None:
                for fact in store.records(*store.bounds(lo, hi)):
                    facts.setdefault((fname, fact.key), []).append(fact)
        rctx = RuleContext(
            window_start=lo,
            window_end=hi,
            events=events,
            facts=facts,
            params=self.params,
        )
        rctx._fluents = ctx._fluents
        range_contexts[cache_key] = rctx
        return rctx

    def _token_context(
        self,
        spec: IncrementalSpec,
        dirty: set[Hashable],
        window_start: int,
        q: int,
        ctx: RuleContext,
        token_contexts: dict[Hashable, RuleContext],
    ) -> RuleContext:
        """A full-window context restricted to the declared input types,
        filtered down to the dirty groundings.

        Definitions declaring the same inputs (same types, same
        partition functions — e.g. the paper's ``disagree`` / ``agree``
        pair over per-bus ``move``/``gps`` reports) select identical
        slices for identical dirty sets, so the context is shared
        between them within one query; the keying deliberately ignores
        ``point_partition``, which only labels *outputs*.
        """
        cache_key = (
            tuple(
                sorted(
                    (t, id(spec.event_partition[t]))
                    for t in spec.event_types
                )
            ),
            tuple(
                sorted(
                    (n, id(spec.fact_partition[n]))
                    for n in spec.fact_names
                )
            ),
            frozenset(dirty),
        )
        cached = token_contexts.get(cache_key)
        if cached is not None:
            return cached
        # The dirty rows are picked out of the window's records on
        # demand — the records the full context has the stores build,
        # once per row — in store order.
        events: dict[str, list[Event]] = {}
        facts: dict[tuple[str, FluentKey], list[FluentFact]] = {}
        for etype in spec.event_types:
            token_of = spec.event_partition[etype]
            selected = [
                ev for ev in ctx.events(etype) if token_of(ev) in dirty
            ]
            if selected:
                events[etype] = selected
        for fname in spec.fact_names:
            token_of = spec.fact_partition[fname]
            for key, (_, group) in ctx._facts_of(fname).items():
                selected = [f for f in group if token_of(f) in dirty]
                if selected:
                    facts[(fname, key)] = selected
        rctx = RuleContext(
            window_start=window_start,
            window_end=q,
            events=events,
            facts=facts,
            params=self.params,
        )
        rctx._fluents = ctx._fluents
        token_contexts[cache_key] = rctx
        return rctx

    def _inject_upstream(
        self,
        rctx: RuleContext,
        definition: Definition,
        ctx: RuleContext,
        occ_times: dict[str, list[int]],
    ) -> None:
        """Expose this query's upstream derived events to a restricted
        context, sliced to its ``(lo, hi]`` range."""
        for dep in definition.depends_on:
            if dep in rctx._occurrences:
                continue
            occurrences = ctx._occurrences.get(dep)
            if occurrences is None:
                continue  # a fluent or raw-input dependency
            dep_times = occ_times.get(dep)
            if dep_times is None:
                dep_times = occ_times[dep] = [o.time for o in occurrences]
            i = bisect.bisect_right(dep_times, rctx.window_start)
            j = bisect.bisect_right(dep_times, rctx.window_end)
            rctx._store_occurrences(dep, occurrences[i:j])

    # -- fluent interval assembly (shared by both modes) ---------------
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
