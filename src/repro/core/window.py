"""The array window of the RTEC engine: a persistent working memory.

Consecutive query times ``Q_{i-1}`` and ``Q_i`` share the overlap
``(Q_i - window, Q_{i-1}]`` of their working memories.  What is kept
across queries is the *window itself* — never anything derived from
it: every definition is evaluated over the whole window at every
query (:mod:`repro.core.rtec`).

* :class:`WorkingMemory` — the persistent window: one
  :class:`~.columns.ColumnStore` (a struct of arrays in ``(time,
  seq)`` order) per event type and input fluent, into which inputs are
  admitted by arrival time straight from the pending batches' blocks
  and from which they are evicted by the window's left edge — nothing
  is rebuilt per query, and no ``Event``/``FluentFact`` exists until a
  reader asks for one;
* :class:`PendingBatch` — one columnar feed awaiting admission;
* :func:`streamless_checkpoint` — the checkpoint writer's way of
  leaving the regenerable input stream out of a pickle.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Any, Optional

import numpy as np

from .columns import (
    ColumnSpec,
    ColumnStore,
    SDEColumns,
    TokenCodes,
    block_rows,
)

#: When set, :meth:`WorkingMemory.__getstate__` omits the pending
#: entries of the *initial input stream* (everything buffered before
#: :meth:`WorkingMemory.mark_stream_boundary`) — they are regenerable,
#: and re-serialising the whole future stream at every checkpoint is
#: what would make checkpointing cost O(run length) per write.  The
#: flag is scoped to the checkpoint writer; any other pickling of a
#: working memory (the shard workers' own checkpoints, a fed engine
#: handed to a worker started by another method than ``fork``) keeps
#: the full buffer.
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


def in_streamless_checkpoint() -> bool:
    """Whether a pickle is being taken inside
    :func:`streamless_checkpoint`."""
    return _STREAMLESS.get()


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
        #: input stream, and every later object feed converted by
        #: :meth:`repro.core.rtec.RTEC.feed`): arrays in
        #: ``(arrival, seq)`` order with a cursor, no object per row.
        self._batches: list[PendingBatch] = []
        self._seq = 0
        #: declared columnar layout per ``(kind, name)``, merged across
        #: the compiled rules reading it.
        self._column_specs: dict[tuple[str, str], ColumnSpec] = {}
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
        numeric field union; conflicting grounding-token layouts are an
        error — one store cannot group its rows two ways."""
        key = (kind, name)
        merged = self._column_specs.get(key, spec).merge(spec)
        if merged is None:
            raise ValueError(
                f"compiled rules declare conflicting grounding-token "
                f"layouts for {kind} {name!r}: "
                f"{self._column_specs[key].token} and {spec.token}"
            )
        self._column_specs[key] = merged

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
    def rows_join_decided(self) -> int:
        """Rows whose join to a partner store (each ``move`` row's
        ``gps``) was decided so far: once per admitted row, and again
        per re-opening."""
        return self._counted("rows_joined")

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

    def admit(self, q: int, horizon: int) -> int:
        """Move everything that has arrived by ``q`` into the window.

        Rows whose occurrence time is already at or before ``horizon``
        (the new window's left edge) are discarded outright.  Returns
        the number of *events* admitted — the SDEs this query sees for
        the first time.
        """
        n_events = 0
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
                if not is_fact:
                    n_events += len(rows)
        self._batches = [batch for batch in self._batches if len(batch)]
        return n_events

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
