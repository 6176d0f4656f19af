"""Cross-window caching machinery for the incremental RTEC engine.

Consecutive query times ``Q_{i-1}`` and ``Q_i`` share the overlap
``(Q_i - window, Q_{i-1}]`` of their working memories, yet the legacy
engine re-derives every definition from scratch at each query.  This
module provides the building blocks the engine uses to re-derive only
the newest ``step`` of data:

* :class:`IncrementalSpec` — a definition's declaration of *how far* a
  derived point can see (lookback/lookahead over the raw inputs it
  reads), which makes cached points reusable and late arrivals
  invalidatable;
* :class:`WorkingMemory` — the persistent window: one
  :class:`~.columns.ColumnStore` (a struct of arrays in ``(time,
  seq)`` order) per event type and input fluent, into which inputs are
  admitted by arrival time straight from the pending batches' blocks
  and from which they are evicted by the window's left edge — nothing
  is rebuilt per query, and no ``Event``/``FluentFact`` exists until a
  reader asks for one;
* :class:`LateArrivals` — what a query admitted behind the previous
  query time, per input, as arrays: the bands and dirty groundings
  that invalidate cached points;
* range utilities (:func:`merge_ranges`, :class:`RangeSet`) and output
  diffing (:func:`changed_point_ranges`,
  :func:`changed_interval_ranges`) used to propagate invalidation
  through the definition strata.

The contract behind :class:`IncrementalSpec`: a definition's output
*point* at time ``t`` (an occurrence, or an initiation/termination
point) must be a function of

* input SDEs/facts of the declared types with occurrence time in
  ``(t - lookback, t + lookahead]``, and
* upstream definition outputs in the same band (upstream changes are
  propagated by the engine via the published change ranges),

and nothing else.  A definition whose points depend on unbounded
history (e.g. "k consecutive readings" with no time bound) declares
``lookback=None`` and is recomputed in full each query.  Definitions
with no spec at all (the default) also take the full-recompute path,
so user-supplied rules are always evaluated exactly as by the legacy
engine.
"""

from __future__ import annotations

import bisect
import contextlib
import contextvars
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, Hashable, Optional

import numpy as np

from .columns import (
    ColumnSpec,
    ColumnStore,
    SDEColumns,
    TokenCodes,
    block_rows,
)
from .events import Event, FluentFact, FluentKey
from .intervals import IntervalList

#: When set, :meth:`WorkingMemory.__getstate__` omits the pending
#: entries of the *initial input stream* (everything buffered before
#: :meth:`WorkingMemory.mark_stream_boundary`) — they are regenerable,
#: and re-serialising the whole future stream at every checkpoint is
#: what would make checkpointing cost O(run length) per write.  The
#: flag is scoped to the checkpoint writer; any other pickling of a
#: working memory (shipping fed engines to the shard workers at start,
#: the workers' own checkpoints) keeps the full buffer.
_STREAMLESS = contextvars.ContextVar("wm_streamless_pickle", default=False)


@contextlib.contextmanager
def streamless_checkpoint():
    """Within this context, pickling a :class:`WorkingMemory` drops the
    regenerable initial-stream part of its pending buffer (see
    :data:`_STREAMLESS`).  Used by the checkpoint coordinator; restore
    goes through :meth:`WorkingMemory.refill_columns`."""
    token = _STREAMLESS.set(True)
    try:
        yield
    finally:
        _STREAMLESS.reset(token)

#: Inclusive integer time range ``[lo, hi]``.
TimeRange = tuple[int, int]


# ----------------------------------------------------------------------
# Incremental contracts
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IncrementalSpec:
    """How a definition's output points depend on its raw inputs.

    Attributes
    ----------
    lookback:
        A point at ``t`` depends on inputs with occurrence time
        ``> t - lookback``; ``None`` marks the definition uncacheable
        (points may depend on unbounded history inside the window).
    lookahead:
        A point at ``t`` depends on inputs with occurrence time
        ``<= t + lookahead``.
    event_types / fact_names:
        The raw SDE event types and input-fluent names the rule body
        reads.  Late arrivals of other types never invalidate this
        definition's cache.
    event_partition / fact_partition / point_partition:
        Optional *grounding partition*: maps from an input event / an
        input fact / an output point to a hashable token such that a
        point is a function only of inputs carrying the same token
        (e.g. per-bus rules).  When every declared input type has a
        partition function, a late arrival invalidates only its own
        token's points — the engine re-derives just the affected
        groundings instead of a whole time band.
        An input partition must be a function of the input's
        *grounding token* — the key of a fact, the token fields a
        compiled rule declares for an event type: of all the late rows
        of one grounding the engine materialises a single
        representative and asks the function about that one (every
        partition in :mod:`repro.core.traffic` is such a function).
        ``point_partition`` receives an :class:`~.events.Occurrence`
        for derived events, a ``(key, t)`` pair for simple fluents and
        a ``(key, value, t)`` triple for valued fluents.
    """

    lookback: Optional[int]
    lookahead: int = 0
    event_types: frozenset[str] = frozenset()
    fact_names: frozenset[str] = frozenset()
    event_partition: Optional[
        Mapping[str, Callable[[Event], Hashable]]
    ] = None
    fact_partition: Optional[
        Mapping[str, Callable[[FluentFact], Hashable]]
    ] = None
    point_partition: Optional[Callable[[Any], Hashable]] = None

    @property
    def partitioned(self) -> bool:
        """Whether invalidation can target individual groundings."""
        if self.point_partition is None:
            return False
        events = self.event_partition or {}
        facts = self.fact_partition or {}
        return all(t in events for t in self.event_types) and all(
            n in facts for n in self.fact_names
        )


# ----------------------------------------------------------------------
# Persistent working memory
# ----------------------------------------------------------------------
class PendingBatch:
    """One columnar feed awaiting admission, as arrays.

    The batch's rows — in the canonical order that assigned their
    sequence numbers — are sorted once by ``(arrival, seq)``; a cursor
    marks the admitted prefix.  Per pending row the buffer holds five
    integers (arrival, sequence number, occurrence time, block and row
    within the block) and no Python object: :meth:`take_due` hands the
    rows a query admits inside its window to the window store as
    index arrays into the blocks.
    """

    __slots__ = (
        "blocks", "n_event_blocks", "arrival", "seq", "time", "block",
        "row", "cursor",
    )

    def __init__(self, batch: SDEColumns, first_seq: int):
        self._index(
            batch.blocks,
            len(batch.events),
            np.arange(first_seq + 1, first_seq + 1 + batch.n),
        )

    def _index(self, blocks: tuple, n_event_blocks: int, seq: np.ndarray):
        """Order the rows of ``blocks`` by ``(arrival, seq)``; ``seq``
        numbers them in canonical order (block by block, row by row)
        and ascends."""
        self.blocks = blocks
        self.n_event_blocks = n_event_blocks
        empty = [np.empty(0, dtype=np.int64)]
        arrival = np.concatenate([b.arrivals for b in blocks] or empty)
        # Sequence numbers ascend in canonical row order, so a stable
        # sort by arrival alone is the (arrival, seq) order.
        order = np.argsort(arrival, kind="stable")
        block_of, row_of = block_rows(blocks)
        self.arrival = arrival[order]
        self.seq = seq[order]
        self.time = np.concatenate([b.times for b in blocks] or empty)[order]
        self.block = block_of[order]
        self.row = row_of[order]
        self.cursor = 0

    def __len__(self) -> int:
        """Rows still pending."""
        return len(self.arrival) - self.cursor

    @property
    def last_seq(self) -> int:
        """The largest sequence number the batch was assigned."""
        return int(self.seq.max()) if len(self.seq) else 0

    def skip_through(self, q: int) -> None:
        """Move the cursor past every row with ``arrival <= q``."""
        self.cursor = int(np.searchsorted(self.arrival, q, side="right"))

    def take_due(self, q: int, horizon: int) -> tuple[list[tuple], int]:
        """Consume the rows with ``arrival <= q``.

        Returns the consumed rows that occurred after ``horizon``,
        grouped by block — ``(block index, rows within the block,
        occurrence times, sequence numbers)``, each group in
        ``(arrival, seq)`` order — and the number of rows at or before
        the horizon, which are dropped on the time array.
        """
        lo = self.cursor
        self.skip_through(q)
        if self.cursor == lo:
            return [], 0
        live = np.flatnonzero(self.time[lo:self.cursor] > horizon) + lo
        block_of = self.block[live]
        groups = []
        for b in np.unique(block_of).tolist():
            at = live[block_of == b]
            groups.append((b, self.row[at], self.time[at], self.seq[at]))
        return groups, (self.cursor - lo) - len(live)

    # A pickled batch carries only what is still pending, and nothing
    # that can be recomputed: every block reduced to its pending rows
    # (in canonical order) and their sequence numbers.  The order
    # arrays are rebuilt on load.
    def __getstate__(self):
        block_of = self.block[self.cursor:]
        rows = self.row[self.cursor:]
        seq = self.seq[self.cursor:]
        blocks, seqs = [], [np.empty(0, dtype=np.int64)]
        for b, block in enumerate(self.blocks):
            slots = np.flatnonzero(block_of == b)
            slots = slots[np.argsort(rows[slots])]
            blocks.append(block.take(rows[slots]))
            seqs.append(seq[slots])
        return tuple(blocks), self.n_event_blocks, np.concatenate(seqs)

    def __setstate__(self, state) -> None:
        self._index(*state)


class WorkingMemory:
    """The persistent window: every input SDE inside it, as arrays.

    Inputs are buffered with their arrival time; :meth:`admit` moves
    everything that has arrived by the query time from the pending
    batches' blocks into one :class:`~.columns.ColumnStore` per event
    type and per input fluent — index arithmetic per block, no record
    built — and :meth:`evict` advances each store past the rows that
    fell out of the window.  Between queries the stores *are* the
    window contents: per store, every row that has arrived and
    occurred inside the window, by occurrence time and then by
    sequence number.  Nothing is rebuilt, and an
    :class:`~.events.Event` / :class:`~.events.FluentFact` exists only
    for a row some reader asked for as an object.
    """

    def __init__(self) -> None:
        #: The window, per ``(kind, name)`` — ``("event", type)`` or
        #: ``("fact", fluent name)``: the only store.  Created when a
        #: row of that type is first admitted.
        self._stores: dict[tuple[str, str], ColumnStore] = {}
        #: Feeds awaiting admission — the only pending buffer: one
        #: :class:`PendingBatch` per :meth:`buffer_columns` call (the
        #: input stream, and every later object feed wrapped by
        #: :meth:`repro.core.rtec.RTEC.feed`): arrays in
        #: ``(arrival, seq)`` order with a cursor, no object per row.
        self._batches: list[PendingBatch] = []
        self._seq = 0
        #: declared columnar layout per ``(kind, name)``, merged across
        #: the compiled rules reading it; ``None`` marks one whose
        #: declarations conflicted — its store keeps no evaluation
        #: columns.
        self._column_specs: dict[
            tuple[str, str], Optional[ColumnSpec]
        ] = {}
        #: The token codes the stores share.  Process-local: not
        #: pickled, renumbered on first use after a restore.
        self.tokens = TokenCodes()
        #: Sequence number of the last item of the *initial input
        #: stream* (see :meth:`mark_stream_boundary`); 0 means no
        #: boundary was declared and streamless pickling is disabled.
        self._stream_seq = 0
        #: Batch-row accounting (``rtec.ingest.*``): rows :meth:`admit`
        #: moved into the window, and rows it dropped because they
        #: occurred at or before the horizon.  Read as differences
        #: around a query; not carried through pickles.
        self.rows_admitted = 0
        self.rows_skipped_horizon = 0

    # -- durability ----------------------------------------------------
    def __getstate__(self) -> dict[str, Any]:
        # Checkpoint fast path: the initial stream (seq <= the
        # boundary) is regenerable and omitted; only later feeds
        # (crowd feedback SDEs) travel with the snapshot.  Restore
        # must go through :meth:`refill_columns`.
        boundary = self._stream_seq if _STREAMLESS.get() else 0
        return {
            "column_specs": self._column_specs,
            "stores": self._stores,
            "batches": [
                batch for batch in self._batches if batch.last_seq > boundary
            ],
            "seq": self._seq,
            "stream_seq": self._stream_seq,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__init__()
        self._column_specs = state["column_specs"]
        self._stores = state["stores"]
        for store in self._stores.values():
            store.tokens = self.tokens
        self._batches = state["batches"]
        self._seq = state["seq"]
        self._stream_seq = state["stream_seq"]

    def buffer_columns(self, batch: SDEColumns) -> None:
        """Queue a columnar SDE batch.

        The batch enters the pending buffer as one
        :class:`PendingBatch` — order arrays over its blocks — and its
        rows stay where they are: :meth:`admit` refers the window
        store to them.  Sequence numbers follow the batch's canonical
        order (event blocks, then fact blocks), exactly as the object
        path would assign them for the same order, so a batch-fed
        stream refills identically (see :meth:`refill_columns`).
        """
        if batch.n:
            self._batches.append(PendingBatch(batch, self._seq))
            self._seq += batch.n

    # -- the window ----------------------------------------------------
    def declare_columns(self, kind: str, name: str, spec: ColumnSpec) -> None:
        """Declare the columnar layout a compiled rule reads from an
        event type (``kind="event"``) or an input fluent
        (``kind="fact"``).  Declarations from several rules merge by
        numeric field union; conflicting grounding-token layouts
        disable the evaluation columns for it (readers then build them
        from the records, per query)."""
        key = (kind, name)
        if key in self._column_specs:
            current = self._column_specs[key]
            self._column_specs[key] = (
                None if current is None else current.merge(spec)
            )
        else:
            self._column_specs[key] = spec

    def store(self, kind: str, name: str) -> Optional[ColumnStore]:
        """The window's rows of one event type or input fluent
        (``None`` if none was ever admitted)."""
        return self._stores.get((kind, name))

    def _counted(self, counter: str) -> int:
        return sum(getattr(s, counter) for s in self._stores.values())

    @property
    def rows_materialised(self) -> int:
        """Records built from the stores so far."""
        return self._counted("rows_materialised")

    @property
    def rows_encoded(self) -> int:
        """Rows whose evaluation columns were filled so far."""
        return self._counted("rows_encoded")

    @property
    def rows_close_decided(self) -> int:
        """Rows a lazily joined column (the ``close`` join of the
        ``gps`` positions) was computed for so far."""
        return self._counted("rows_ragged")

    # -- streamless checkpointing --------------------------------------
    def mark_stream_boundary(self) -> None:
        """Declare everything buffered so far to be the *initial input
        stream*: a deterministic, regenerable sequence the pipeline fed
        in one pass before the first query.

        A checkpoint written inside :func:`streamless_checkpoint` then
        omits the not-yet-admitted part of that stream instead of
        re-serialising the whole future at every interval; restore
        regenerates it and calls :meth:`refill_columns`.  Items buffered
        *after* the boundary (crowd feedback SDEs produced mid-run) are
        not regenerable and always travel with the snapshot.
        """
        self._stream_seq = self._seq

    def refill_columns(
        self, batch: SDEColumns, admitted_through: int
    ) -> None:
        """Rebuild the pending rows a streamless checkpoint dropped.

        ``batch`` must be the regenerated initial stream exactly as it
        was originally fed (one :meth:`buffer_columns` call on a fresh
        engine), so the re-assigned sequence numbers match the
        original feed.  Rows that had arrived by the last query at
        ``admitted_through`` are skipped — :meth:`admit` consumed them
        before the checkpoint was taken — and the rest joins the
        post-boundary feeds the snapshot retained.
        """
        if batch.n != self._stream_seq:
            raise RuntimeError(
                f"regenerated stream has {batch.n} items, the "
                f"checkpointed boundary says {self._stream_seq} — the "
                f"scenario did not regenerate deterministically"
            )
        refilled = PendingBatch(batch, 0)
        refilled.skip_through(admitted_through)
        if len(refilled):
            self._batches.insert(0, refilled)

    def admit(
        self, q: int, horizon: int
    ) -> dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]:
        """Move everything that has arrived by ``q`` into the window.

        Rows whose occurrence time is already at or before ``horizon``
        (the new window's left edge) are discarded outright.  Returns,
        per ``(kind, name)``, the occurrence times and sequence numbers
        of the rows admitted — the inputs this query sees for the
        first time.
        """
        admitted: dict[tuple[str, str], list[tuple]] = {}
        for batch in self._batches:
            groups, skipped = batch.take_due(q, horizon)
            self.rows_skipped_horizon += skipped
            for b, rows, times, seqs in groups:
                block = batch.blocks[b]
                is_fact = b >= batch.n_event_blocks
                key = (
                    ("fact", block.name) if is_fact else ("event", block.type)
                )
                store = self._stores.get(key)
                if store is None:
                    store = self._stores[key] = ColumnStore(
                        self._column_specs.get(key), is_fact, self.tokens
                    )
                store.admit(block, rows, times, seqs)
                self.rows_admitted += len(rows)
                admitted.setdefault(key, []).append((times, seqs))
        self._batches = [batch for batch in self._batches if len(batch)]
        return {
            key: tuple(np.concatenate(column) for column in zip(*chunks))
            for key, chunks in admitted.items()
        }

    def evict(self, horizon: int) -> None:
        """Evict rows that fell out of the window ``(horizon, Q]``."""
        for store in self._stores.values():
            store.evict(horizon)

    def n_events(self) -> int:
        """Number of events currently inside the window."""
        return sum(
            store.n
            for (kind, _), store in self._stores.items()
            if kind == "event"
        )


class LateArrivals:
    """The delayed SDEs of one query: rows it admitted that occurred at
    or before the previous query time — inside the overlap whose
    points are cached — per input, as arrays.

    What invalidates is derived on demand and shared by the
    definitions that declare the input: the time *ranges* a late row
    touches (the distinct late times), and under a grounding partition
    the dirty groundings — for a compiled definition as the *tokens*
    of the late rows, read off the arrays; for an interpreted one as
    its partition function names them (:meth:`dirty`).  A partition
    function takes a record; it is asked about one representative per
    distinct late grounding where the store codes groundings (every
    fact store, every event type a compiled rule declares), and about
    every late row otherwise (``crowd`` answers: dozens).
    """

    def __init__(
        self,
        memory: WorkingMemory,
        admitted: Mapping[tuple[str, str], tuple[np.ndarray, np.ndarray]],
        previous: Optional[int],
    ):
        self._memory = memory
        #: ``(kind, name)`` -> (times, sequence numbers) of its late rows.
        self._late: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}
        if previous is not None:
            for key, (times, seqs) in admitted.items():
                late = times <= previous
                if late.any():
                    self._late[key] = (times[late], seqs[late])
        self._tokens: dict[tuple, set[tuple]] = {}
        self._dirty: dict[tuple, set[Hashable]] = {}

    def ranges(self, kind: str, name: str) -> list[TimeRange]:
        """One ``(t, t)`` range per distinct late time of the input."""
        times = self._late.get((kind, name), ((), ()))[0]
        return [(t, t) for t in np.unique(times).tolist()]

    def _rows(self, kind: str, name: str):
        """The input's store and where its late rows sit in it."""
        store = self._memory.store(kind, name)
        return store, store.locate(self._late[kind, name][1])

    def tokens(
        self, kind: str, name: str, fields: Sequence[str]
    ) -> set[tuple]:
        """The grounding tokens of the input's late rows: the keys of
        late facts, the ``fields`` cells of late events."""
        key = (kind, name, fields)
        found = self._tokens.get(key)
        if found is None:
            found = set()
            if (kind, name) in self._late:
                store, at = self._rows(kind, name)
                found = store.tokens_at(at, fields)
            self._tokens[key] = found
        return found

    def dirty(
        self, kind: str, name: str, partition: Callable
    ) -> set[Hashable]:
        """The groundings, as ``partition`` names them, of the input's
        late rows."""
        key = (kind, name, partition)
        found = self._dirty.get(key)
        if found is None:
            found = set()
            if (kind, name) in self._late:
                store, at = self._rows(kind, name)
                if store.grounded:
                    at = at[np.unique(store.codes[at], return_index=True)[1]]
                found.update(map(partition, store.records_at(at)))
            self._dirty[key] = found
        return found

# ----------------------------------------------------------------------
# Range utilities
# ----------------------------------------------------------------------
def merge_ranges(
    ranges: Iterable[TimeRange], lo: int, hi: int
) -> list[TimeRange]:
    """Clip inclusive ranges to ``[lo, hi]`` and merge overlapping or
    adjacent ones into a sorted, disjoint list."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in ranges if a <= hi and b >= lo
    )
    out: list[TimeRange] = []
    for a, b in clipped:
        if out and a <= out[-1][1] + 1:
            if b > out[-1][1]:
                out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return out


class RangeSet:
    """Membership tests over a merged, sorted list of inclusive ranges."""

    __slots__ = ("_starts", "_ends")

    def __init__(self, ranges: Sequence[TimeRange]):
        self._starts = [a for a, _ in ranges]
        self._ends = [b for _, b in ranges]

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __contains__(self, t: int) -> bool:
        i = bisect.bisect_right(self._starts, t) - 1
        return i >= 0 and t <= self._ends[i]

    def index(self, times: np.ndarray) -> np.ndarray:
        """Per element of ``times`` the position of the range it falls
        inside, ``-1`` for none."""
        if not self._starts:
            return np.full(len(times), -1, dtype=np.int64)
        idx = (
            np.searchsorted(
                np.asarray(self._starts, dtype=np.int64), times, "right"
            )
            - 1
        )
        ends = np.asarray(self._ends, dtype=np.int64)
        return np.where(
            (idx >= 0) & (times <= ends[np.maximum(idx, 0)]), idx, -1
        )

    def mask(self, times: np.ndarray) -> np.ndarray:
        """Vectorised membership: a boolean array marking which of
        ``times`` fall inside any range (``__contains__``, batched)."""
        return self.index(times) >= 0


# ----------------------------------------------------------------------
# Output diffing (invalidation propagation between strata)
# ----------------------------------------------------------------------
def freeze(value: Any) -> Hashable:
    """A hashable stand-in for a payload value (mappings and lists are
    converted recursively; payload mapping proxies are not hashable)."""
    if isinstance(value, Mapping):
        return tuple(sorted((k, freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(freeze(v) for v in value)
    return value


def _occurrence_token(occ) -> Hashable:
    """Hashable identity of an occurrence for multiset diffing (the
    payload mapping proxy itself is not hashable)."""
    return (occ.type, occ.key, occ.time, freeze(occ.payload))


def changed_point_ranges(
    old: Iterable[Any], new: Iterable[Any], lo: int, hi: int
) -> list[TimeRange]:
    """Time ranges where two multisets of occurrences differ, clipped
    to ``[lo, hi]``.

    The engine passes what a query *replaced* — the cached occurrences
    it dropped and the ones it derived in their place — not the two
    whole windows: a reused occurrence is the same object on both
    sides.  Per time-point the two sides are first compared in order
    (re-deriving unchanged inputs yields equal occurrences in the same
    order); only where that fails are payloads frozen for a true
    multiset comparison.
    """
    by_time: dict[int, tuple[list, list]] = {}
    for side, points in enumerate((old, new)):
        for pt in points:
            sides = by_time.get(pt.time)
            if sides is None:
                sides = by_time[pt.time] = ([], [])
            sides[side].append(pt)
    changed = [
        t
        for t, (before, after) in by_time.items()
        if len(before) != len(after)
        or (
            before != after
            and Counter(map(_occurrence_token, before))
            != Counter(map(_occurrence_token, after))
        )
    ]
    return merge_ranges(((t, t) for t in changed), lo, hi)


def changed_interval_ranges(
    old: Mapping[FluentKey, IntervalList],
    new: Mapping[FluentKey, IntervalList],
    lo: int,
    hi: int,
) -> list[TimeRange]:
    """Time ranges where two fluent outputs differ point-wise, clipped
    to ``[lo, hi]``.

    For each grounding the symmetric difference of the old and new
    interval lists — ``(old OR new) AND NOT (old AND new)`` — is exactly
    the set of time-points where ``holdsAt`` changed.
    """
    ranges: list[TimeRange] = []
    empty = IntervalList.empty()
    for key in old.keys() | new.keys():
        a = old.get(key, empty)
        b = new.get(key, empty)
        if a == b:
            continue
        union = a.union(b)
        common = a.intersect(b)
        for start, end in union.relative_complement([common]):
            last = hi if end is None else end - 1
            ranges.append((start, last))
    return merge_ranges(ranges, lo, hi)


# ----------------------------------------------------------------------
# Per-definition cache state
# ----------------------------------------------------------------------
@dataclass
class DefinitionState:
    """Cross-query cache state the engine keeps per definition."""

    #: cached output points per stream (``{"occ": [...]}`` for derived
    #: events, ``{"init": [...], "term": [...]}`` for fluents), covering
    #: the whole previous window.
    streams: Optional[dict[str, list[Any]]] = None
    #: lazily built ``int64`` time arrays per cached stream, for the
    #: vectorised middle-reuse filter; reset whenever ``streams`` is
    #: reassigned (the engine sets it back to ``None``).
    stream_times: Optional[dict[str, np.ndarray]] = None
    #: previous query's final interval output (fluent kinds only).
    prev_out: Optional[dict[FluentKey, IntervalList]] = None
    #: where this definition's output changed relative to the previous
    #: query, clipped to the overlap — read by downstream definitions
    #: to invalidate their own caches.
    changed: list[TimeRange] = field(default_factory=list)
