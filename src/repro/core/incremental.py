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
* :class:`WorkingMemory` — a persistent, time-indexed SDE store that
  admits inputs by arrival time and evicts by the window's left edge
  instead of rebuilding per query;
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
import sys
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, Hashable, Optional

import numpy as np

from .columns import (
    ColumnMirror,
    ColumnSpec,
    SDEColumns,
    TokenCodes,
    block_rows,
    build_records,
)
from .events import Event, FluentFact, FluentKey, from_row, to_row
from .intervals import IntervalList

_MAX_SEQ = sys.maxsize

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
class TimedColumn:
    """One time-sorted column of SDEs (one event type or fact key).

    Items are kept sorted by ``(occurrence time, feed sequence)``; the
    sequence number reproduces the legacy engine's stable-sort
    tie-break, so window slices are element-for-element identical to
    the lists the legacy engine builds per query.
    """

    __slots__ = ("order", "times", "items")

    def __init__(self) -> None:
        self.order: list[tuple[int, int]] = []
        self.times: list[int] = []
        self.items: list[Any] = []

    def insert(self, time: int, seq: int, item: Any) -> None:
        """Insert an item at its ``(time, seq)`` position."""
        order = self.order
        key = (time, seq)
        if not order or key >= order[-1]:
            # In-order arrival (the overwhelmingly common case).
            order.append(key)
            self.times.append(time)
            self.items.append(item)
            return
        i = bisect.bisect_right(order, key)
        order.insert(i, key)
        self.times.insert(i, time)
        self.items.insert(i, item)

    def evict(self, horizon: int) -> None:
        """Drop every item with occurrence time ``<= horizon``."""
        cut = bisect.bisect_right(self.order, (horizon, _MAX_SEQ))
        if cut:
            del self.order[:cut]
            del self.times[:cut]
            del self.items[:cut]

    # Checkpoint fast path: serialise items as compact rows (see
    # ``events.to_row``) so the pickler stays on its C path; ``times``
    # is derivable from ``order`` and not stored.
    def __getstate__(self):
        return (self.order, [to_row(item) for item in self.items])

    def __setstate__(self, state) -> None:
        order, rows = state
        self.order = order
        self.times = [time for time, _ in order]
        self.items = [from_row(row) for row in rows]

    def bounds(self, lo: int, hi: int) -> tuple[int, int]:
        """Index bounds of the items with time in ``(lo, hi]``."""
        i = bisect.bisect_right(self.order, (lo, _MAX_SEQ))
        j = bisect.bisect_right(self.order, (hi, _MAX_SEQ))
        return i, j


class PendingBatch:
    """One columnar feed awaiting admission, as arrays.

    The batch's rows — in the canonical order that assigned their
    sequence numbers — are sorted once by ``(arrival, seq)``; a cursor
    marks the admitted prefix.  Per pending row the buffer holds five
    integers (arrival, sequence number, occurrence time, block and row
    within the block) and no Python object: :meth:`take_due`
    materialises exactly the rows a query admits inside its window.
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

    def take_due(self, q: int, horizon: int) -> tuple[tuple, int]:
        """Consume the rows with ``arrival <= q``.

        Returns ``(arrivals, seqs, is_fact flags, records)`` — three
        arrays and a list, parallel, over the consumed rows whose
        occurrence time is after ``horizon``, in ``(arrival, seq)``
        order — and the number of rows at or before the horizon, which
        are skipped on the time array and never built.
        """
        lo = self.cursor
        self.skip_through(q)
        due = slice(lo, self.cursor)
        live = np.flatnonzero(self.time[due] > horizon) + lo
        block_of = self.block[live]
        chunk = (
            self.arrival[live],
            self.seq[live],
            block_of >= self.n_event_blocks,
            build_records(self.blocks, block_of, self.row[live]),
        )
        return chunk, (self.cursor - lo) - len(live)

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
    """Persistent SDE store indexed by occurrence time.

    Inputs are buffered with their arrival time; :meth:`admit` moves
    everything that has arrived by the query time into the per-type /
    per-fact-key columns, and :meth:`evict` cuts the prefix that fell
    out of the window.  Between queries the columns *are* the window
    contents — nothing is rebuilt.
    """

    def __init__(self) -> None:
        self.events: dict[str, TimedColumn] = {}
        self.facts: dict[tuple[str, FluentKey], TimedColumn] = {}
        #: per-token sub-indexes maintained for registered grounding
        #: partitions: ``(event type, id(fn)) -> token -> column`` and
        #: ``(fact name, id(fn)) -> token -> fact key -> column``.
        self.event_groups: dict[
            tuple[str, int], dict[Hashable, TimedColumn]
        ] = {}
        self.fact_groups: dict[
            tuple[str, int], dict[Hashable, dict[FluentKey, TimedColumn]]
        ] = {}
        self._event_partitions: dict[
            str, list[tuple[int, Callable[[Event], Hashable]]]
        ] = {}
        self._fact_partitions: dict[
            str, list[tuple[int, Callable[[FluentFact], Hashable]]]
        ] = {}
        #: Feeds awaiting admission — the only pending buffer: one
        #: :class:`PendingBatch` per :meth:`buffer_columns` call (the
        #: input stream, and every later object feed wrapped by
        #: :meth:`repro.core.rtec.RTEC.feed`): arrays in
        #: ``(arrival, seq)`` order with a cursor, no object per row.
        self._batches: list[PendingBatch] = []
        self._seq = 0
        #: declared columnar layout per ``(kind, name)`` — ``("event",
        #: type)`` or ``("fact", fluent name)`` — merged across the
        #: compiled rules reading it; ``None`` marks one whose
        #: declarations conflicted — no columns are kept for it.
        self._column_specs: dict[
            tuple[str, str], Optional[ColumnSpec]
        ] = {}
        #: The :class:`~.columns.ColumnMirror` of the declared types,
        #: per kind and name, created when a compiled body first reads
        #: them and from then on fed every admitted record — with the
        #: token codes they share.  Process-local: not pickled, rebuilt
        #: from the records on first use after a restore.
        self._mirrors: dict[str, dict[str, ColumnMirror]] = {
            "event": {}, "fact": {},
        }
        self.tokens = TokenCodes()
        #: The left edge of the last :meth:`evict`.
        self._horizon: Optional[int] = None
        #: Sequence number of the last item of the *initial input
        #: stream* (see :meth:`mark_stream_boundary`); 0 means no
        #: boundary was declared and streamless pickling is disabled.
        self._stream_seq = 0
        #: Batch-row accounting (``rtec.ingest.*``): rows :meth:`admit`
        #: built a record for, and rows it dropped unbuilt because they
        #: occurred at or before the horizon.  Read as differences
        #: around a query; not carried through pickles.
        self.rows_materialised = 0
        self.rows_skipped_horizon = 0

    # -- durability ----------------------------------------------------
    # The per-token sub-indexes are keyed by ``id(partition_fn)``, which
    # is only meaningful within one process.  Checkpoints therefore
    # serialise the partition *functions* (module-level callables that
    # pickle by reference) and rebuild the indexes on restore by
    # re-registering them against the restored columns — the same
    # backfill path used when a partition is first declared.
    def __getstate__(self) -> dict[str, Any]:
        # Checkpoint fast path: the initial stream (seq <= the
        # boundary) is regenerable and omitted; only later feeds
        # (crowd feedback SDEs) travel with the snapshot.  Restore
        # must go through :meth:`refill_columns`.
        boundary = self._stream_seq if _STREAMLESS.get() else 0
        return {
            "column_specs": self._column_specs,
            "events": self.events,
            "facts": self.facts,
            "event_partitions": {
                etype: [fn for _, fn in fns]
                for etype, fns in self._event_partitions.items()
            },
            "fact_partitions": {
                name: [fn for _, fn in fns]
                for name, fns in self._fact_partitions.items()
            },
            "batches": [
                batch for batch in self._batches if batch.last_seq > boundary
            ],
            "seq": self._seq,
            "stream_seq": self._stream_seq,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__init__()
        self.events = state["events"]
        self.facts = state["facts"]
        self._batches = state["batches"]
        self._seq = state["seq"]
        self._stream_seq = state["stream_seq"]
        self._column_specs = state.get("column_specs", {})
        for etype, fns in state["event_partitions"].items():
            for fn in fns:
                self.register_event_partition(etype, fn)
        for name, fns in state["fact_partitions"].items():
            for fn in fns:
                self.register_fact_partition(name, fn)

    def buffer_columns(self, batch: SDEColumns) -> None:
        """Queue a columnar SDE batch without materialising its rows.

        The batch enters the pending buffer as one
        :class:`PendingBatch` — order arrays over its blocks — and a
        row becomes an :class:`Event`/:class:`FluentFact` only when
        :meth:`admit` moves it into the window; rows a window never
        sees are never built.  Sequence numbers follow the batch's
        canonical order (event blocks, then fact blocks), exactly as
        the object path would assign them for the same order, so a
        batch-fed stream refills identically (see
        :meth:`refill_columns`).
        """
        if batch.n:
            self._batches.append(PendingBatch(batch, self._seq))
            self._seq += batch.n

    # -- columnar mirror declarations ----------------------------------
    def declare_columns(self, kind: str, name: str, spec: ColumnSpec) -> None:
        """Declare the columnar layout a compiled rule reads from an
        event type (``kind="event"``) or an input fluent
        (``kind="fact"``).  Declarations from several rules merge by
        numeric field union; conflicting grounding-token layouts
        disable the columns for it (readers then build them from the
        object lists, per query)."""
        key = (kind, name)
        if key in self._column_specs:
            current = self._column_specs[key]
            self._column_specs[key] = (
                None if current is None else current.merge(spec)
            )
        else:
            self._column_specs[key] = spec

    def mirror(self, kind: str, name: str) -> Optional[ColumnMirror]:
        """The mirror of a declared type — the window's rows as arrays
        — brought up to date with what was admitted and evicted since
        the last call (``None`` for an undeclared type)."""
        spec = self._column_specs.get((kind, name))
        if spec is None:
            return None
        mirror = self._mirrors[kind].get(name)
        if mirror is None:
            mirror = self._mirrors[kind][name] = ColumnMirror(
                spec, kind == "fact", self.tokens
            )
            if kind == "fact":
                stored = [
                    column
                    for (fname, _), column in self.facts.items()
                    if fname == name
                ]
            else:
                stored = [self.events[name]] if name in self.events else []
            for column in stored:
                mirror.fresh.extend(
                    (time, seq, item)
                    for (time, seq), item in zip(column.order, column.items)
                )
        mirror.sync(self._horizon)
        return mirror

    @property
    def rows_encoded(self) -> int:
        """Records encoded into the mirrors so far."""
        return sum(
            mirror.rows_encoded
            for by_name in self._mirrors.values()
            for mirror in by_name.values()
        )

    @property
    def rows_close_decided(self) -> int:
        """Rows a lazily joined column (the ``close`` join of the
        ``gps`` positions) was computed for so far."""
        return sum(
            mirror.rows_ragged
            for by_name in self._mirrors.values()
            for mirror in by_name.values()
        )

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

    # -- grounding partitions ------------------------------------------
    def register_event_partition(
        self, etype: str, fn: Callable[[Event], Hashable]
    ) -> None:
        """Maintain a per-token sub-index of an event type under ``fn``.

        Registered partitions let the engine assemble the restricted
        context of a dirty grounding from pre-grouped columns instead
        of scanning (and re-tokenising) the whole window every query.
        Functions are deduplicated by identity — the same module-level
        partition shared by several definitions is indexed once.
        """
        fns = self._event_partitions.setdefault(etype, [])
        if any(fid == id(fn) for fid, _ in fns):
            return
        fns.append((id(fn), fn))
        groups: dict[Hashable, TimedColumn] = {}
        self.event_groups[(etype, id(fn))] = groups
        column = self.events.get(etype)
        if column is not None:  # backfill anything already admitted
            for (time, seq), item in zip(column.order, column.items):
                self._group_insert(groups, fn(item), time, seq, item)

    def register_fact_partition(
        self, name: str, fn: Callable[[FluentFact], Hashable]
    ) -> None:
        """Maintain per-token, per-key sub-indexes of a fact name."""
        fns = self._fact_partitions.setdefault(name, [])
        if any(fid == id(fn) for fid, _ in fns):
            return
        fns.append((id(fn), fn))
        groups: dict[Hashable, dict[FluentKey, TimedColumn]] = {}
        self.fact_groups[(name, id(fn))] = groups
        for (fname, fkey), column in self.facts.items():
            if fname != name:
                continue
            for (time, seq), item in zip(column.order, column.items):
                by_key = groups.setdefault(fn(item), {})
                self._group_insert(by_key, fkey, time, seq, item)

    @staticmethod
    def _group_insert(
        groups: dict, token: Hashable, time: int, seq: int, item: Any
    ) -> None:
        column = groups.get(token)
        if column is None:
            column = groups[token] = TimedColumn()
        column.insert(time, seq, item)

    def admit(
        self, q: int, horizon: int
    ) -> tuple[list[Event], list[FluentFact]]:
        """Index everything that has arrived by ``q``.

        Items whose occurrence time is already at or before ``horizon``
        (the new window's left edge) are discarded outright.  Returns
        the newly admitted events and facts — the inputs this query
        sees for the first time.
        """
        new_events: list[Event] = []
        new_facts: list[FluentFact] = []
        #: (arrivals, seqs, is_fact flags, items) per feed that came
        #: due: three arrays and a list.
        due: list[tuple] = []
        for batch in self._batches:
            chunk, skipped = batch.take_due(q, horizon)
            self.rows_materialised += len(chunk[3])
            self.rows_skipped_horizon += skipped
            if chunk[3]:
                due.append(chunk)
        self._batches = [batch for batch in self._batches if len(batch)]
        if not due:
            return new_events, new_facts
        _, seqs, fact_flags, items = due[0]
        if len(due) > 1:
            # Several feeds came due together (crowd feedback beside
            # the stream, per-step batches): one (arrival, seq) order,
            # found on the arrays — no tuple per row.
            arrivals, seqs, fact_flags = (
                np.concatenate(column) for column in list(zip(*due))[:3]
            )
            order = np.lexsort((seqs, arrivals))
            seqs, fact_flags = seqs[order], fact_flags[order]
            items = [item for chunk in due for item in chunk[3]]
            items = [items[i] for i in order.tolist()]
        event_mirrors = self._mirrors["event"]
        fact_mirrors = self._mirrors["fact"]
        for seq, is_fact, item in zip(
            seqs.tolist(), fact_flags.tolist(), items
        ):
            if is_fact:
                column = self.facts.get((item.name, item.key))
                if column is None:
                    column = self.facts[(item.name, item.key)] = TimedColumn()
                column.insert(item.time, seq, item)
                fns = self._fact_partitions.get(item.name)
                if fns:
                    for fid, fn in fns:
                        by_key = self.fact_groups[(item.name, fid)].setdefault(
                            fn(item), {}
                        )
                        self._group_insert(
                            by_key, item.key, item.time, seq, item
                        )
                mirror = fact_mirrors.get(item.name)
                if mirror is not None:
                    mirror.fresh.append((item.time, seq, item))
                new_facts.append(item)
            else:
                column = self.events.get(item.type)
                if column is None:
                    column = self.events[item.type] = TimedColumn()
                column.insert(item.time, seq, item)
                fns = self._event_partitions.get(item.type)
                if fns:
                    for fid, fn in fns:
                        self._group_insert(
                            self.event_groups[(item.type, fid)],
                            fn(item),
                            item.time,
                            seq,
                            item,
                        )
                mirror = event_mirrors.get(item.type)
                if mirror is not None:
                    mirror.fresh.append((item.time, seq, item))
                new_events.append(item)
        return new_events, new_facts

    def evict(self, horizon: int) -> None:
        """Evict items that fell out of the window ``(horizon, Q]``."""
        self._horizon = horizon
        for column in self.events.values():
            column.evict(horizon)
        for column in self.facts.values():
            column.evict(horizon)
        for groups in self.event_groups.values():
            stale = []
            for token, column in groups.items():
                column.evict(horizon)
                if not column.items:
                    stale.append(token)
            for token in stale:
                del groups[token]
        for groups in self.fact_groups.values():
            stale_tokens = []
            for token, by_key in groups.items():
                stale_keys = []
                for fkey, column in by_key.items():
                    column.evict(horizon)
                    if not column.items:
                        stale_keys.append(fkey)
                for fkey in stale_keys:
                    del by_key[fkey]
                if not by_key:
                    stale_tokens.append(token)
            for token in stale_tokens:
                del groups[token]

    def n_events(self) -> int:
        """Number of events currently inside the window."""
        return sum(len(column.items) for column in self.events.values())


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
