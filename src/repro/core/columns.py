"""Columnar (struct-of-arrays) SDE batches and the window store.

The per-event-object hot path pays a Python-level attribute access and
dict lookup per SDE per rule body per query.  This module provides the
columnar representation the engine keeps its inputs in, from the
simulators to the rule bodies:

* :class:`SDEColumns` — the ingestion batch type: one block of
  ``numpy`` time/arrival arrays and typed field columns per event type
  (:class:`EventColumns`) or fact name (:class:`FactColumns`).  The
  simulators emit it, fault injection and the region split transform
  it, the engine's pending buffer keeps it, and the window store
  refers to its rows (:class:`RecordSequence` is the lazy object view
  for everyone else).
* :class:`ColumnSpec` — a compiled rule's declaration of which payload
  fields it reads as numeric columns and which identify the grounding
  token.
* :class:`ColumnStore` — the window's rows of one event type (or one
  input fluent, all groundings together) as a struct of arrays in
  ``(time, seq)`` order: occurrence times, sequence numbers and a
  ``(block, row)`` reference to the cells each row was fed with.  A
  :class:`~.window.WorkingMemory` keeps one per type as its only
  store: admission moves rows in by index arithmetic (a delayed SDE is
  sorted into place), eviction advances an offset.  Everything else is
  derived from the referenced cells lazily, at most once per row, and
  then stays with the row: the integer codes of the grounding tokens
  (:class:`TokenCodes`) and the ``float64`` columns of the declared
  numeric fields when a compiled body first reads them,
  variable-length joined columns (the ``close`` join) when one is
  asked for, and an :class:`~.events.Event` / :class:`~.events.
  FluentFact` only for a reader that needs an object.

Everything here is representation only: compiled evaluators
(:mod:`repro.core.compiled`) read the columns, and every emitted point
is built from Python ints and the original cells, so the recognition
output is bit-identical to the interpreter's.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Optional

import numpy as np

from .events import Event, FluentFact, FluentKey


@dataclass(frozen=True)
class ColumnSpec:
    """Which payload fields a compiled rule reads from a view.

    ``numeric`` fields are exposed as ``float64`` arrays for vectorised
    comparisons; ``token`` fields form the per-row grounding tuple
    (e.g. ``(intersection, approach, sensor)``) used for per-token
    grouping.  Specs are value objects — hashable, mergeable by field
    union — and must name fields present in every payload of the type.
    """

    numeric: tuple[str, ...] = ()
    token: tuple[str, ...] = ()

    def merge(self, other: "ColumnSpec") -> Optional["ColumnSpec"]:
        """The union spec, or ``None`` when token layouts conflict."""
        if self.token != other.token:
            return None
        if other.numeric == self.numeric:
            return self
        merged = tuple(dict.fromkeys(self.numeric + other.numeric))
        return ColumnSpec(numeric=merged, token=self.token)


# ----------------------------------------------------------------------
# Ingestion batches
# ----------------------------------------------------------------------
def _typed_column(values, n: int, what: str) -> np.ndarray:
    """A field column: ``int64``, ``float64`` or ``object``.

    Integer and float arrays keep their kind (so a materialised payload
    holds the Python ``int`` or ``float`` the producer meant); anything
    else becomes an object column holding the original references.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iub":
        col = values.astype(np.int64, copy=False)
    elif isinstance(values, np.ndarray) and values.dtype.kind == "f":
        col = values.astype(np.float64, copy=False)
    elif isinstance(values, np.ndarray) and values.dtype == object:
        col = values
    else:
        col = np.fromiter(values, dtype=object, count=len(values))
    if col.ndim != 1 or len(col) != n:
        raise ValueError(f"column length mismatch for {what}")
    return col


def _mappings(fields: Mapping[str, np.ndarray], rows: np.ndarray) -> list:
    """Read-only payload mappings of ``rows``, built column-wise:
    ``tolist`` turns every NumPy scalar into the exact Python type."""
    if not fields:
        return [MappingProxyType({}) for _ in range(len(rows))]
    names = tuple(fields)
    columns = [col[rows].tolist() for col in fields.values()]
    return [
        MappingProxyType(dict(zip(names, values)))
        for values in zip(*columns)
    ]


class EventColumns:
    """One event type's batch as a struct of arrays.

    Two representations share the type:

    * :meth:`from_events` wraps existing :class:`Event` objects —
      times/arrivals become arrays, payloads stay an object column so
      materialisation returns payload-identical events (zero-copy);
    * ``fields`` is the fully columnar form the simulators produce:
      one typed array per payload field
      (``int64``, ``float64`` or ``object``), in payload key order.  No
      ``Event`` object exists until a row is admitted into the working
      memory, and a materialised payload is type-exact: an ``int64``
      cell comes back as ``int``, a ``float64`` cell as ``float``.
    """

    __slots__ = ("type", "times", "arrivals", "payloads", "fields")

    def __init__(
        self,
        etype: str,
        times: np.ndarray,
        arrivals: np.ndarray,
        *,
        payloads: Optional[Sequence[Mapping[str, Any]]] = None,
        fields: Optional[Mapping[str, Any]] = None,
    ):
        self.type = etype
        self.times = times
        self.arrivals = arrivals
        n = len(times)
        if len(arrivals) != n:
            raise ValueError(
                f"column length mismatch for event type {etype!r}"
            )
        self.payloads = list(payloads) if payloads is not None else None
        self.fields: dict[str, np.ndarray] = {
            name: _typed_column(col, n, f"event type {etype!r}")
            for name, col in (fields or {}).items()
        }

    def __len__(self) -> int:
        return len(self.times)

    @classmethod
    def from_events(cls, etype: str, events: Sequence[Event]) -> "EventColumns":
        n = len(events)
        return cls(
            etype,
            np.fromiter((ev.time for ev in events), np.int64, count=n),
            np.fromiter((ev.arrival for ev in events), np.int64, count=n),
            payloads=[ev.payload for ev in events],
        )

    def column(self, name: str) -> np.ndarray:
        """One payload field as an array (an object array built from
        the payloads when the block wraps objects)."""
        if self.payloads is None:
            return self.fields[name]
        return self.cells(name, np.arange(len(self)))

    def cells(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Payload field ``name`` at ``rows``: those cells of the typed
        column, or an object array read from the wrapped payloads.
        ``tolist()`` of either gives the exact Python values a
        materialised payload would hold."""
        if self.payloads is None:
            return self.fields[name][rows]
        payloads = self.payloads
        return np.fromiter(
            (payloads[i][name] for i in rows.tolist()),
            dtype=object,
            count=len(rows),
        )

    def tokens(self, rows: np.ndarray, fields: Sequence[str]) -> list[tuple]:
        """The grounding tokens of ``rows``: per row the tuple of its
        ``fields`` cells."""
        if not fields:
            return [()] * len(rows)
        return list(
            zip(*(self.cells(name, rows).tolist() for name in fields))
        )

    def take(self, rows: np.ndarray) -> "EventColumns":
        """The block of ``rows`` (an integer index array), in that
        order; rows may repeat."""
        payloads = self.payloads
        return EventColumns(
            self.type,
            self.times[rows],
            self.arrivals[rows],
            payloads=(
                None
                if payloads is None
                else [payloads[i] for i in rows.tolist()]
            ),
            fields={name: col[rows] for name, col in self.fields.items()},
        )

    def records(self, rows: np.ndarray) -> list[Event]:
        """Materialise ``rows`` as :class:`Event` objects
        (payload-identical for :meth:`from_events` blocks)."""
        if self.payloads is not None:
            stored = self.payloads
            payloads = [stored[i] for i in rows.tolist()]
        else:
            payloads = _mappings(self.fields, rows)
        etype = self.type
        return [
            Event(etype, time, payload, arrival)
            for time, payload, arrival in zip(
                self.times[rows].tolist(),
                payloads,
                self.arrivals[rows].tolist(),
            )
        ]

    # Wrapped payloads are read-only proxies, which do not pickle; they
    # travel as plain dicts and :meth:`records` freezes them again.
    def __getstate__(self):
        payloads = self.payloads
        if payloads is not None:
            payloads = [dict(payload) for payload in payloads]
        return self.type, self.times, self.arrivals, payloads, self.fields

    def __setstate__(self, state) -> None:
        (
            self.type, self.times, self.arrivals, self.payloads, self.fields,
        ) = state


class FactColumns:
    """One fact name's batch: times/arrivals as arrays, plus either the
    original key and value objects (:meth:`from_facts`) or, for
    array-native producers, one object column per key position and one
    typed column per field of a mapping-valued fluent (``gps`` carries
    ``lon``/``lat``/``direction``/``congestion``) — the key tuple and
    the value mapping are then rebuilt on access."""

    __slots__ = (
        "name", "times", "arrivals", "keys", "values",
        "key_columns", "value_fields",
    )

    def __init__(
        self,
        name: str,
        times: np.ndarray,
        arrivals: np.ndarray,
        *,
        keys: Optional[Sequence[FluentKey]] = None,
        values: Optional[Sequence[Any]] = None,
        key_columns: Sequence[Any] = (),
        value_fields: Optional[Mapping[str, Any]] = None,
    ):
        self.name = name
        self.times = times
        self.arrivals = arrivals
        n = len(times)
        if (keys is None) != (values is None):
            raise ValueError("keys and values come together")
        what = f"fluent fact {name!r}"
        if len(arrivals) != n or (
            keys is not None and (len(keys) != n or len(values) != n)
        ):
            raise ValueError(f"column length mismatch for {what}")
        self.keys = list(keys) if keys is not None else None
        self.values = list(values) if values is not None else None
        self.key_columns = tuple(
            _typed_column(col, n, what) for col in key_columns
        )
        self.value_fields: dict[str, np.ndarray] = {
            field: _typed_column(col, n, what)
            for field, col in (value_fields or {}).items()
        }

    def __len__(self) -> int:
        return len(self.times)

    @classmethod
    def from_facts(
        cls, name: str, facts: Sequence[FluentFact]
    ) -> "FactColumns":
        n = len(facts)
        return cls(
            name,
            np.fromiter((f.time for f in facts), np.int64, count=n),
            np.fromiter((f.arrival for f in facts), np.int64, count=n),
            keys=[f.key for f in facts],
            values=[f.value for f in facts],
        )

    def key_column(self, position: int) -> np.ndarray:
        """One position of the key tuples as an object array."""
        if self.keys is None:
            return self.key_columns[position]
        return np.fromiter(
            (key[position] for key in self.keys),
            dtype=object,
            count=len(self.keys),
        )

    def value_column(self, field: str) -> np.ndarray:
        """One field of a mapping-valued fluent as an array."""
        if self.values is None:
            return self.value_fields[field]
        return self.cells(field, np.arange(len(self)))

    def cells(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Field ``name`` of a mapping-valued fluent at ``rows`` (see
        :meth:`EventColumns.cells`)."""
        if self.values is None:
            return self.value_fields[name][rows]
        values = self.values
        return np.fromiter(
            (values[i][name] for i in rows.tolist()),
            dtype=object,
            count=len(rows),
        )

    def tokens(self, rows: np.ndarray, fields: Sequence[str] = ()) -> list:
        """The grounding tokens of ``rows``: a fact's is its key
        (``fields`` is the event blocks' argument)."""
        if self.keys is not None:
            keys = self.keys
            return [keys[i] for i in rows.tolist()]
        if not self.key_columns:
            return [()] * len(rows)
        return list(zip(*(col[rows].tolist() for col in self.key_columns)))

    def take(self, rows: np.ndarray) -> "FactColumns":
        """The block of ``rows`` (an integer index array), in that
        order; rows may repeat."""
        keys, values = self.keys, self.values
        picked = rows.tolist() if keys is not None else ()
        return FactColumns(
            self.name,
            self.times[rows],
            self.arrivals[rows],
            keys=None if keys is None else [keys[i] for i in picked],
            values=None if values is None else [values[i] for i in picked],
            key_columns=[col[rows] for col in self.key_columns],
            value_fields={
                field: col[rows] for field, col in self.value_fields.items()
            },
        )

    def records(self, rows: np.ndarray) -> list[FluentFact]:
        """Materialise ``rows`` as :class:`FluentFact` objects (key
        and value are the original references for :meth:`from_facts`
        blocks)."""
        keys = self.tokens(rows)
        if self.values is not None:
            values = [self.values[i] for i in rows.tolist()]
        else:
            values = _mappings(self.value_fields, rows)
        name = self.name
        return [
            FluentFact(name, key, value, time, arrival)
            for key, value, time, arrival in zip(
                keys,
                values,
                self.times[rows].tolist(),
                self.arrivals[rows].tolist(),
            )
        ]

    # As for :class:`EventColumns`: frozen mapping values travel as
    # plain dicts.
    def __getstate__(self):
        values = self.values
        if values is not None:
            values = [
                dict(value) if isinstance(value, MappingProxyType) else value
                for value in values
            ]
        return (
            self.name, self.times, self.arrivals, self.keys, values,
            self.key_columns, self.value_fields,
        )

    def __setstate__(self, state) -> None:
        (
            self.name, self.times, self.arrivals, self.keys, self.values,
            self.key_columns, self.value_fields,
        ) = state


def block_rows(blocks: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """``(block index, row within block)`` of every row of ``blocks``,
    in canonical order: block by block, row by row."""
    lengths = [len(block) for block in blocks]
    return (
        np.repeat(np.arange(len(blocks)), lengths),
        np.concatenate(
            [np.arange(n) for n in lengths] or [np.empty(0, np.int64)]
        ),
    )


def build_records(
    blocks: Sequence, block_of: np.ndarray, row_of: np.ndarray
) -> list:
    """Materialise rows spread over ``blocks`` — row ``row_of[i]`` of
    block ``block_of[i]`` for every ``i``, in that order — with one
    :meth:`records` call per block."""
    out: list = [None] * len(block_of)
    for b in np.unique(block_of).tolist():
        slots = np.flatnonzero(block_of == b)
        for slot, record in zip(
            slots.tolist(), blocks[b].records(row_of[slots])
        ):
            out[slot] = record
    return out


class RecordSequence(Sequence):
    """The rows of some blocks as one read-only, time-ordered sequence
    of records, built on access.

    ``len()`` is the sum of the block lengths; the merge order (a
    stable sort by occurrence time over the blocks in the order given,
    so ties keep block order, then row order) is computed on first
    item access, and a record exists only while the caller holds it.
    """

    def __init__(self, blocks: Sequence):
        self._blocks = tuple(blocks)
        self._len = sum(len(block) for block in self._blocks)
        self._order: Optional[tuple[np.ndarray, np.ndarray]] = None

    def __len__(self) -> int:
        return self._len

    def _records(self, positions) -> list:
        if self._order is None:
            block_of, row_of = block_rows(self._blocks)
            times = np.concatenate(
                [block.times for block in self._blocks]
                or [np.empty(0, np.int64)]
            )
            order = np.argsort(times, kind="stable")
            self._order = (block_of[order], row_of[order])
        block_of, row_of = self._order
        return build_records(
            self._blocks, block_of[positions], row_of[positions]
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._records(np.arange(self._len)[index])
        if not -self._len <= index < self._len:
            raise IndexError("record index out of range")
        return self._records(np.array([index % self._len]))[0]

    def __iter__(self) -> Iterator:
        for lo in range(0, self._len, 4096):
            yield from self._records(slice(lo, lo + 4096))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, tuple, RecordSequence)):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other)
        )

class SDEColumns:
    """A heterogeneous SDE batch: event blocks plus fact blocks.

    The canonical row order — event blocks in insertion order, each
    top to bottom, then fact blocks likewise — is shared by the
    buffering and the stream-refill paths, so a batch-fed engine
    assigns the same sequence numbers whether the stream is fed live
    or regenerated after a crash.
    """

    __slots__ = ("events", "facts")

    def __init__(
        self,
        events: Sequence[EventColumns] = (),
        facts: Sequence[FactColumns] = (),
    ):
        self.events = tuple(events)
        self.facts = tuple(facts)

    @classmethod
    def from_sdes(
        cls,
        events: Iterable[Event] = (),
        facts: Iterable[FluentFact] = (),
    ) -> "SDEColumns":
        """Group an object stream into per-type / per-name blocks.

        Grouping preserves each block's relative order; the engine
        sorts admitted rows by ``(time, seq)`` per column anyway, and
        cross-type order never affects recognition output (the parity
        tests pin this).
        """
        by_type: dict[str, list[Event]] = {}
        for ev in events:
            by_type.setdefault(ev.type, []).append(ev)
        by_name: dict[str, list[FluentFact]] = {}
        for fact in facts:
            by_name.setdefault(fact.name, []).append(fact)
        return cls(
            [
                EventColumns.from_events(etype, evs)
                for etype, evs in by_type.items()
            ],
            [
                FactColumns.from_facts(name, fs)
                for name, fs in by_name.items()
            ],
        )

    @property
    def blocks(self) -> tuple:
        """Event blocks, then fact blocks: the canonical row order."""
        return (*self.events, *self.facts)

    @property
    def n_events(self) -> int:
        return sum(len(block) for block in self.events)

    @property
    def n_facts(self) -> int:
        return sum(len(block) for block in self.facts)

    @property
    def n(self) -> int:
        return self.n_events + self.n_facts

    def event_block(self, etype: str) -> Optional[EventColumns]:
        """The block of one event type (``None`` when absent)."""
        return next((b for b in self.events if b.type == etype), None)

    def fact_block(self, name: str) -> Optional[FactColumns]:
        """The block of one fact name (``None`` when absent)."""
        return next((b for b in self.facts if b.name == name), None)

    def in_stream_order(self) -> "SDEColumns":
        """The same rows with the empty blocks dropped and the others
        ordered by their first occurrence time (ties keep the present
        order) — the block order :meth:`from_sdes` gives the
        time-ordered object stream of these (time-sorted) blocks, and
        therefore the sequence numbers an engine assigns."""
        def ordered(blocks):
            return sorted(
                (block for block in blocks if len(block)),
                key=lambda block: int(block.times[0]),
            )
        return SDEColumns(ordered(self.events), ordered(self.facts))

    def validate(self) -> None:
        """Reject what the record constructors and :meth:`RTEC.feed`
        reject per object — a negative occurrence time, an arrival
        before the occurrence — vectorised over each block, so a bad
        batch fails when it is fed, not when a later query admits the
        row."""
        for block in self.blocks:
            if not len(block):
                continue
            what = (
                f"fluent fact {block.name!r}"
                if isinstance(block, FactColumns)
                else f"event of type {block.type!r}"
            )
            if int(block.times.min()) < 0:
                raise ValueError(
                    f"{what} occurs at negative "
                    "time; SDE timestamps must be >= 0"
                )
            early = np.flatnonzero(block.arrivals < block.times)
            if len(early):
                raise ValueError(
                    f"{what} arrives at {int(block.arrivals[early[0]])} "
                    f"before it occurs at {int(block.times[early[0]])}"
                )

    def iter_events(self) -> Iterator[Event]:
        """Materialise every event row (the reference engine's feed
        path, and the Section 3 graph's sources)."""
        for block in self.events:
            yield from block.records(np.arange(len(block)))

    def iter_facts(self) -> Iterator[FluentFact]:
        """Materialise every fact row (as :meth:`iter_events`)."""
        for block in self.facts:
            yield from block.records(np.arange(len(block)))


# ----------------------------------------------------------------------
# The window store
# ----------------------------------------------------------------------
class TokenCodes:
    """Dense integer codes for grounding tokens.

    One table serves every :class:`ColumnStore` of a working memory
    (or of a context without one), so the ``(bus,)`` token of a
    ``move`` row and the key of the ``gps`` fact it pairs with carry
    the same code and join as integers.  Codes are process-local: they
    number tokens in the order this table first saw them.
    """

    __slots__ = ("_codes", "tokens")

    def __init__(self) -> None:
        self._codes: dict[tuple, int] = {}
        #: code -> token.
        self.tokens: list[tuple] = []

    def get(self, token: tuple) -> Optional[int]:
        """The code of ``token`` (``None`` if no row ever carried it)."""
        return self._codes.get(token)

    def encode(self, tokens: Sequence[tuple]) -> np.ndarray:
        """The codes of ``tokens``, numbering the unseen ones."""
        codes, table = self._codes, self.tokens
        out = list(map(codes.get, tokens))
        if None in out:
            for i, token in enumerate(tokens):
                if out[i] is None:
                    code = codes.get(token)  # it may repeat in the batch
                    if code is None:
                        code = codes[token] = len(table)
                        table.append(token)
                    out[i] = code
        return np.array(out, dtype=np.int64)


def ragged_index(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The positions ``starts[i] .. starts[i] + lens[i] - 1`` of every
    ``i``, concatenated: the gather index of a batch of slices."""
    first = np.cumsum(lens) - lens
    return np.repeat(starts - first, lens) + np.arange(int(lens.sum()))


class ColumnStore:
    """The window's rows of one event type — or of one input fluent,
    all groundings together — as a struct of arrays, in ``(time, seq)``
    order: the order the window is defined in (occurrence time, then
    feed order within the type; sequence numbers are unique, so the
    order is total and duplicate records are all kept).

    What a row *is*: its occurrence time, its feed sequence number and
    a reference ``(source block, row)`` to the cells it was fed with —
    a row of an :class:`EventColumns` / :class:`FactColumns` block,
    either representation.  :meth:`admit` moves rows in from the
    pending buffer's blocks with index arithmetic (an in-order arrival
    appends; a delayed one re-sorts the tail from its time on);
    :meth:`evict` advances the live range.  No record is built.

    What is derived from the cells, lazily, at most once per row, and
    then carried with the row through merges and evictions:

    * the *evaluation columns* compiled rule bodies read — the integer
      code of the grounding token (the spec's token fields of an event
      payload; the key of a fact, so a fact store always has codes) and
      the ``float64`` value of every numeric field of the spec — filled
      for the rows that lack them when :attr:`codes` or :meth:`col` is
      read;
    * :meth:`ragged` variable-length columns (the ``close`` join: the
      intersections a ``gps`` position is close to), computed on
      request;
    * the :class:`~.events.Event` / :class:`~.events.FluentFact` of a
      row, built by :meth:`records` for a reader that needs an object
      (an interpreted rule body, a test).

    An emitted point reads the cells it needs through :meth:`cells` —
    type-exact, never through the ``float64`` columns.

    A store pickles its live rows — sequence numbers and each source
    block cut down to them — and nothing derived: codes are
    process-local, and everything else is rebuilt on first use after a
    restore.
    """

    __slots__ = (
        "spec", "is_fact", "tokens", "rows_encoded", "rows_ragged",
        "rows_materialised", "_sources", "_bufs", "_blank", "_pools",
        "_lo", "_hi", "_unencoded",
    )

    def __init__(
        self, spec: Optional[ColumnSpec], is_fact: bool, tokens: TokenCodes
    ):
        #: The declared layout; ``None`` for an event type no compiled
        #: rule reads (no evaluation columns).  The grounding token of
        #: a fact is its key, declared or not.
        self.spec = ColumnSpec() if spec is None and is_fact else spec
        self.is_fact = is_fact
        self.tokens = tokens
        #: Rows whose evaluation columns were filled, rows a ragged
        #: column was computed for, and records built, over this
        #: instance's life.
        self.rows_encoded = 0
        self.rows_ragged = 0
        self.rows_materialised = 0
        #: The blocks live rows refer to (few: one per feed that has
        #: rows in the window).
        self._sources: list = []
        #: Column name -> buffer; rows ``_lo .. _hi - 1`` are live.
        #: ``_blank`` holds the cell of a row that lacks the column.
        self._bufs: dict[Any, np.ndarray] = {}
        self._blank: dict[Any, Any] = {}
        for name in ("time", "seq", "src", "row"):
            self._column(name, np.int64, 0)
        self._column("item", object, None)
        self._column("built", bool, False)
        if self.spec is not None:
            self._column("code", np.int64, -1)
            for name in self.spec.numeric:
                self._column(("field", name), np.float64, np.nan)
        #: Ragged column name -> its values; a row's slice starts at
        #: ``_bufs["start", name]`` and is ``_bufs["len", name]`` long
        #: (negative: not computed yet).
        self._pools: dict[Any, np.ndarray] = {}
        self._lo = 0
        self._hi = 0
        #: Whether rows were admitted since the evaluation columns
        #: were last filled.
        self._unencoded = False

    def _column(self, name, dtype, blank) -> None:
        self._blank[name] = blank
        size = len(self._bufs["time"]) if self._bufs else 0
        self._bufs[name] = np.full(size, blank, dtype=dtype)

    # -- maintenance ---------------------------------------------------
    def admit(
        self,
        block,
        rows: np.ndarray,
        times: np.ndarray,
        seqs: np.ndarray,
    ) -> None:
        """Move ``rows`` of ``block`` (any order) into the window, at
        their ``(time, seq)`` positions."""
        k = len(rows)
        if not k:
            return
        self._reserve(k)
        for source, held in enumerate(self._sources):
            if held is block:
                break
        else:
            source = len(self._sources)
            self._sources.append(block)
        fresh = {"time": times, "seq": seqs, "src": source, "row": rows}
        lo, hi = self._lo, self._hi
        bufs = self._bufs
        # Everything before the earliest fresh time keeps its place.
        p = lo + int(np.searchsorted(bufs["time"][lo:hi], times.min(), "left"))
        order = np.lexsort((
            np.concatenate((bufs["seq"][p:hi], seqs)),
            np.concatenate((bufs["time"][p:hi], times)),
        ))
        for name, buf in bufs.items():
            tail = np.empty(hi - p + k, dtype=buf.dtype)
            tail[:hi - p] = buf[p:hi]
            tail[hi - p:] = fresh.get(name, self._blank[name])
            buf[p:hi + k] = tail[order]
        self._hi = hi + k
        self._unencoded = True

    def _reserve(self, k: int) -> None:
        """Room for ``k`` more rows, dropping the evicted prefix, the
        dead slices of the ragged pools and the source blocks no live
        row refers to when it has to move."""
        lo, hi = self._lo, self._hi
        if hi + k <= len(self._bufs["time"]):
            return
        live = hi - lo
        capacity = max(2 * (live + k), 64)
        for name, buf in self._bufs.items():
            grown = np.full(capacity, self._blank[name], dtype=buf.dtype)
            grown[:live] = buf[lo:hi]
            self._bufs[name] = grown
        self._lo, self._hi = 0, live
        for name, pool in self._pools.items():
            start = self._bufs["start", name][:live]
            lens = np.maximum(self._bufs["len", name][:live], 0)
            self._pools[name] = pool[ragged_index(start, lens)]
            start[:] = np.cumsum(lens) - lens
        src = self._bufs["src"][:live]
        used, src[:] = np.unique(src, return_inverse=True)
        self._sources = [self._sources[i] for i in used.tolist()]

    def evict(self, horizon: int) -> None:
        """Drop the rows with occurrence time ``<= horizon``."""
        lo = self._lo
        cut = int(np.searchsorted(self.times, horizon, "right"))
        if cut:
            self._bufs["item"][lo:lo + cut] = None
            self._lo = lo + cut

    # A pickled store carries what its live rows are and nothing that
    # can be recomputed: sequence numbers, and every source block cut
    # down to its live rows (``take``, as a pending batch pickles).
    # Times come back from the blocks, a row's index from its rank.
    def __getstate__(self):
        src = np.empty(self.n, dtype=np.int64)
        blocks = []
        for slots, block, rows in self._by_source(
            np.arange(self._lo, self._hi)
        ):
            src[slots] = len(blocks)
            blocks.append(block.take(rows))
        return (
            self.spec,
            self.is_fact,
            self.seqs,
            src.astype(np.min_scalar_type(len(blocks))),
            blocks,
        )

    def __setstate__(self, state) -> None:
        spec, is_fact, seq, src, blocks = state
        # A working memory hands its restored stores the table they
        # share; a store on its own numbers its tokens itself.
        self.__init__(spec, is_fact, TokenCodes())
        n = len(seq)
        self._reserve(n)
        self._sources = list(blocks)
        bufs = self._bufs
        bufs["seq"][:n] = seq
        bufs["src"][:n] = src
        for s, block in enumerate(blocks):
            at = np.flatnonzero(src == s)
            bufs["row"][at] = np.arange(len(at))
            bufs["time"][at] = block.times
        self._hi = n
        self._unencoded = True

    # -- reads ---------------------------------------------------------
    @property
    def n(self) -> int:
        return self._hi - self._lo

    @property
    def times(self) -> np.ndarray:
        return self._bufs["time"][self._lo:self._hi]

    @property
    def seqs(self) -> np.ndarray:
        """Per row, its feed sequence number."""
        return self._bufs["seq"][self._lo:self._hi]

    def _by_source(self, at: np.ndarray):
        """The rows at buffer positions ``at``, per source block:
        ``(slots, block, rows)`` — ``at[slots]`` are ``rows`` of
        ``block``."""
        src, row = self._bufs["src"][at], self._bufs["row"][at]
        for source in np.unique(src).tolist():
            slots = np.flatnonzero(src == source)
            yield slots, self._sources[source], row[slots]

    def cells(self, name: str, at: np.ndarray) -> list:
        """The cells of payload (or fluent-value) field ``name`` of the
        rows ``at``, read from the blocks the rows were fed in: the
        exact Python values a materialised record holds (an ``int64``
        cell is an ``int``, an object cell the original reference)."""
        out = np.empty(len(at), dtype=object)
        for slots, block, rows in self._by_source(at + self._lo):
            out[slots] = block.cells(name, rows)
        return out.tolist()

    # -- evaluation columns ----------------------------------------------
    def _encode(self) -> None:
        """Fill the evaluation columns of the live rows that lack
        them: the rows admitted since they were last read."""
        if not self._unencoded:
            return
        self._unencoded = False
        bufs = self._bufs
        missing = (
            np.flatnonzero(bufs["code"][self._lo:self._hi] < 0) + self._lo
        )
        self.rows_encoded += len(missing)
        for slots, block, rows in self._by_source(missing):
            at = missing[slots]
            bufs["code"][at] = self.tokens.encode(
                block.tokens(rows, self.spec.token)
            )
            for name in self.spec.numeric:
                bufs["field", name][at] = block.cells(name, rows)

    @property
    def codes(self) -> np.ndarray:
        """Per row, the :class:`TokenCodes` code of its grounding."""
        self._encode()
        return self._bufs["code"][self._lo:self._hi]

    def col(self, name: str) -> np.ndarray:
        """The ``float64`` array of a declared numeric field."""
        self._encode()
        return self._bufs["field", name][self._lo:self._hi]

    def ragged(self, name, compute) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The variable-length column ``name`` as ``(starts, lens,
        values)``: row ``i`` holds ``values[starts[i]:starts[i] +
        lens[i]]``.  Rows that lack it get it now, from
        ``compute(rows) -> (offsets, values)`` (a CSR pair over the
        given row indexes); it then stays with the row."""
        if name not in self._pools:
            self._pools[name] = np.empty(0, dtype=np.int64)
            self._column(("start", name), np.int64, 0)
            self._column(("len", name), np.int64, -1)
        starts = self._bufs["start", name][self._lo:self._hi]
        lens = self._bufs["len", name][self._lo:self._hi]
        missing = np.flatnonzero(lens < 0)
        if len(missing):
            self.rows_ragged += len(missing)
            offsets, values = compute(missing)
            pool = self._pools[name]
            starts[missing] = len(pool) + offsets[:-1]
            lens[missing] = np.diff(offsets)
            self._pools[name] = np.concatenate((pool, values))
        return starts, lens, self._pools[name]

    # -- records ---------------------------------------------------------
    def _items(self, at: np.ndarray) -> np.ndarray:
        """The records of the rows at buffer positions ``at``, building
        those that were never asked for before."""
        bufs = self._bufs
        lacking = at[~bufs["built"][at]]
        if len(lacking):
            self.rows_materialised += len(lacking)
            for slots, block, rows in self._by_source(lacking):
                bufs["item"][lacking[slots]] = np.fromiter(
                    block.records(rows), dtype=object, count=len(rows)
                )
            bufs["built"][lacking] = True
        return bufs["item"][at]

    def records(self) -> list:
        """The rows as records, in store order.  A record is built
        once — field for field what ``block.records`` builds from the
        row's cells — and kept with the row."""
        return self._items(np.arange(self._lo, self._hi)).tolist()

    def by_key(self) -> dict[FluentKey, tuple[list[int], list[FluentFact]]]:
        """A fact store's rows grouped by grounding: ``key -> (times,
        facts)``, each group in store order — a stable grouping, so a
        grounding's facts are ordered by time and, within a time, by
        feed order, as a store of that grounding alone would be."""
        if not self.n:
            return {}
        codes = self.codes
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        starts = np.flatnonzero(
            np.concatenate(([True], codes[1:] != codes[:-1]))
        ).tolist()
        times = self.times[order].tolist()
        facts = self._items(order + self._lo).tolist()
        table = self.tokens.tokens
        return {
            table[code]: (times[a:b], facts[a:b])
            for code, a, b in zip(
                codes[starts].tolist(), starts, starts[1:] + [len(order)]
            )
        }
