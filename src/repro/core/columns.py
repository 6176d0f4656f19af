"""Columnar (struct-of-arrays) SDE batches and the window store.

The per-event-object hot path pays a Python-level attribute access and
dict lookup per SDE per rule body per query.  This module provides the
columnar representation the engine keeps its inputs in, from the
simulators to the rule bodies:

* :class:`SDEColumns` — the ingestion batch type: one block of
  ``numpy`` time/arrival arrays and field columns per event type
  (:class:`EventColumns`) or fact name (:class:`FactColumns`).  The
  simulators emit typed columns; an object stream becomes object
  columns once, where it enters (:meth:`SDEColumns.from_sdes`, one
  schema per block: :func:`check_schema`).  Fault injection and the
  region split transform blocks, the engine's pending buffer keeps
  them, and the window store refers to their rows
  (:class:`RecordSequence` is the lazy object view for everyone else).
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


def _record_schema(record) -> tuple:
    """The block layout a record asks for: an :class:`Event`'s payload
    field names, in order; a :class:`FluentFact`'s key length and value
    fields (``None`` for a value that is not a mapping)."""
    if isinstance(record, Event):
        return tuple(record.payload)
    value = record.value
    fields = tuple(value) if isinstance(value, Mapping) else None
    return len(record.key), fields


def _shape(schema: tuple, is_event: bool) -> str:
    """A :func:`_record_schema` in words."""
    if is_event:
        return f"payload fields {list(schema)}"
    width, fields = schema
    if fields is None:
        return f"key length {width} with a non-mapping value"
    return f"key length {width} with value fields {list(fields)}"


def check_schema(record, schemas: dict) -> None:
    """Refuse ``record`` unless its :func:`_record_schema` is the one
    ``schemas`` took from the first record of its type (or fluent): a
    block has one column per payload field, key position, value field."""
    is_event = isinstance(record, Event)
    name = record.type if is_event else record.name
    own = _record_schema(record)
    first = schemas.setdefault(name, own)
    if own != first:
        raise ValueError(
            f"{'event type' if is_event else 'fluent'} {name!r} mixes "
            f"schemas: {_shape(first, is_event)}, then {_shape(own, is_event)}"
        )


def _block_schema(records: Sequence, empty: tuple) -> tuple:
    """The one :func:`_record_schema` of ``records``, or ``empty``."""
    schemas: dict = {}
    for record in records:
        check_schema(record, schemas)
    return next(iter(schemas.values()), empty)


class EventColumns:
    """One event type's batch as a struct of arrays: occurrence times,
    arrival times and one column per payload field (``int64``,
    ``float64`` or ``object``), in payload key order.  A materialised
    payload is type-exact: an ``int64`` cell comes back as ``int``, a
    ``float64`` cell as ``float``, an object cell as the object itself.
    """

    __slots__ = ("type", "times", "arrivals", "fields")

    def __init__(
        self,
        etype: str,
        times: np.ndarray,
        arrivals: np.ndarray,
        *,
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
        self.fields: dict[str, np.ndarray] = {
            name: _typed_column(col, n, f"event type {etype!r}")
            for name, col in (fields or {}).items()
        }

    def __len__(self) -> int:
        return len(self.times)

    @classmethod
    def from_events(cls, etype: str, events: Sequence[Event]) -> "EventColumns":
        """The block of ``events``: one object column per payload field."""
        n = len(events)
        names = _block_schema(events, ())
        payloads = [ev.payload for ev in events]
        return cls(
            etype,
            np.fromiter((ev.time for ev in events), np.int64, count=n),
            np.fromiter((ev.arrival for ev in events), np.int64, count=n),
            fields={name: [p[name] for p in payloads] for name in names},
        )

    def cells(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Payload field ``name`` at ``rows``."""
        return self.fields[name][rows]

    def tokens(self, rows: np.ndarray, fields: Sequence[str]) -> list[tuple]:
        """The grounding tokens of ``rows``: per row the tuple of its
        ``fields`` cells."""
        if not fields:
            return [()] * len(rows)
        return list(
            zip(*(self.fields[name][rows].tolist() for name in fields))
        )

    def take(self, rows: np.ndarray) -> "EventColumns":
        """The block of ``rows`` (an integer index array), in that
        order; rows may repeat."""
        return EventColumns(
            self.type,
            self.times[rows],
            self.arrivals[rows],
            fields={name: col[rows] for name, col in self.fields.items()},
        )

    def records(self, rows: np.ndarray) -> list[Event]:
        """Materialise ``rows`` as :class:`Event` objects."""
        etype = self.type
        return [
            Event(etype, time, payload, arrival)
            for time, payload, arrival in zip(
                self.times[rows].tolist(),
                _mappings(self.fields, rows),
                self.arrivals[rows].tolist(),
            )
        ]


class FactColumns:
    """One fact name's batch: times and arrivals as arrays, one column
    per key position, and either one column per field of a
    mapping-valued fluent (``value_fields``; ``gps``) or one column of
    values that are not mappings (``values``)."""

    __slots__ = (
        "name", "times", "arrivals", "key_columns", "value_fields", "values",
    )

    def __init__(
        self,
        name: str,
        times: np.ndarray,
        arrivals: np.ndarray,
        *,
        key_columns: Sequence[Any] = (),
        value_fields: Optional[Mapping[str, Any]] = None,
        values: Optional[Sequence[Any]] = None,
    ):
        self.name = name
        self.times = times
        self.arrivals = arrivals
        n = len(times)
        what = f"fluent fact {name!r}"
        if len(arrivals) != n:
            raise ValueError(f"column length mismatch for {what}")
        if values is not None and value_fields:
            raise ValueError(f"{what} has value fields or values, not both")
        self.key_columns = tuple(
            _typed_column(col, n, what) for col in key_columns
        )
        self.value_fields: dict[str, np.ndarray] = {
            field: _typed_column(col, n, what)
            for field, col in (value_fields or {}).items()
        }
        self.values = None if values is None else _typed_column(
            values, n, what
        )

    def __len__(self) -> int:
        return len(self.times)

    @classmethod
    def from_facts(cls, name: str, facts: Sequence[FluentFact]) -> "FactColumns":
        """The block of ``facts``: one object column per key position
        and per value field, or one of values."""
        n = len(facts)
        width, fields = _block_schema(facts, (0, ()))
        keys = [f.key for f in facts]
        values = [f.value for f in facts]
        return cls(
            name,
            np.fromiter((f.time for f in facts), np.int64, count=n),
            np.fromiter((f.arrival for f in facts), np.int64, count=n),
            key_columns=[[key[i] for key in keys] for i in range(width)],
            value_fields={
                field: [value[field] for value in values]
                for field in fields or ()
            },
            values=None if fields is not None else values,
        )

    def cells(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Field ``name`` of a mapping-valued fluent at ``rows``."""
        return self.value_fields[name][rows]

    def tokens(self, rows: np.ndarray, fields: Sequence[str] = ()) -> list:
        """The grounding tokens of ``rows``: a fact's is its key
        (``fields`` is the event blocks' argument)."""
        if not self.key_columns:
            return [()] * len(rows)
        return list(zip(*(col[rows].tolist() for col in self.key_columns)))

    def take(self, rows: np.ndarray) -> "FactColumns":
        """The block of ``rows`` (an integer index array), in that
        order; rows may repeat."""
        return FactColumns(
            self.name,
            self.times[rows],
            self.arrivals[rows],
            key_columns=[col[rows] for col in self.key_columns],
            value_fields={
                field: col[rows] for field, col in self.value_fields.items()
            },
            values=None if self.values is None else self.values[rows],
        )

    def records(self, rows: np.ndarray) -> list[FluentFact]:
        """Materialise ``rows`` as :class:`FluentFact` objects."""
        if self.values is not None:
            values = self.values[rows].tolist()
        else:
            values = _mappings(self.value_fields, rows)
        name = self.name
        return [
            FluentFact(name, key, value, time, arrival)
            for key, value, time, arrival in zip(
                self.tokens(rows),
                values,
                self.times[rows].tolist(),
                self.arrivals[rows].tolist(),
            )
        ]


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
        path)."""
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


def _time_matches(
    times: np.ndarray, probes: np.ndarray, first: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The positions of sorted ``times`` equal to each probe time —
    ``first[i]`` is where ``probes[i]`` would be inserted on the left
    — concatenated, and per position the probe it matches."""
    lens = np.searchsorted(times, probes, "right") - first
    return ragged_index(first, lens), np.repeat(np.arange(len(probes)), lens)


class ColumnStore:
    """The window's rows of one event type — or of one input fluent,
    all groundings together — as a struct of arrays, in ``(time, seq)``
    order: the order the window is defined in (occurrence time, then
    feed order within the type; sequence numbers are unique, so the
    order is total and duplicate records are all kept).

    What a row *is*: its occurrence time, its feed sequence number and
    a reference ``(source block, row)`` to the cells it was fed with —
    a row of an :class:`EventColumns` / :class:`FactColumns` block.
    :meth:`admit` moves rows in from the pending buffer's blocks with
    index arithmetic (an in-order arrival appends; a delayed one
    re-sorts the tail from its time on); :meth:`evict` advances the
    live range.  No record is built.

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
      request, each value with room for per-value objects beside it
      (:meth:`ragged_slots`);
    * the :meth:`join` to a *partner* store — per row, the first
      partner row with its grounding code and time — decided when the
      row is first read after its admission, with some of the
      partner's numeric fields (:meth:`carried`) and ragged columns
      (:meth:`carried_ragged`) copied beside it, and decided anew when
      a partner row it may join is admitted after it;
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
        "rows_joined", "rows_materialised", "_sources", "_bufs", "_blank",
        "_pools", "_slots", "_carried", "_lo", "_hi", "_unencoded",
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
        #: column was computed for, rows whose join was decided, and
        #: records built, over this instance's life.
        self.rows_encoded = 0
        self.rows_ragged = 0
        self.rows_joined = 0
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
        #: Ragged column name -> slot key -> an object array as long
        #: as the column's values (:meth:`ragged_slots`).
        self._slots: dict[Any, dict[Any, np.ndarray]] = {}
        #: The ragged columns copied from a join partner.
        self._carried: set = set()
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
            kept = ragged_index(start, lens)
            self._pools[name] = pool[kept]
            slots = self._slots.get(name, {})
            for key, held in slots.items():
                slots[key] = held[kept]
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
        starts, lens = self._ragged_column(name)
        missing = np.flatnonzero(lens < 0)
        if len(missing):
            self.rows_ragged += len(missing)
            offsets, values = compute(missing)
            self._fill_ragged(name, missing, np.diff(offsets), values)
        return starts, lens, self._pools[name]

    def _ragged_column(self, name) -> tuple[np.ndarray, np.ndarray]:
        """The live ``(starts, lens)`` of ragged column ``name``,
        created empty (every row lacking it) on first use."""
        if name not in self._pools:
            self._pools[name] = np.empty(0, dtype=np.int64)
            self._column(("start", name), np.int32, 0)
            self._column(("len", name), np.int32, -1)
        live = slice(self._lo, self._hi)
        return self._bufs["start", name][live], self._bufs["len", name][live]

    def _fill_ragged(self, name, rows, lens, values) -> None:
        """Give ``rows`` their slices of ragged column ``name``:
        ``lens[i]`` values each, ``values`` concatenated, appended to
        the pool with an empty slot beside each."""
        pool = self._pools[name]
        live = slice(self._lo, self._hi)
        starts = len(pool) + np.cumsum(lens) - lens
        self._bufs["start", name][live][rows] = starts
        self._bufs["len", name][live][rows] = lens
        self._pools[name] = np.concatenate((pool, values))
        slots = self._slots.get(name, {})
        for key, held in slots.items():
            slots[key] = np.concatenate(
                (held, np.full(len(values), None, dtype=object))
            )

    def ragged_slots(self, name, key) -> np.ndarray:
        """An object array beside the values of ragged column
        ``name`` — one slot per value, ``None`` until a reader stores an
        object in it — under ``key`` (one array per reader).  A slot
        goes with its row's slice: it is kept while the slice is, and a
        row whose slice is computed anew gets empty slots.  Read it
        after the column, and write into it before the column grows."""
        slots = self._slots.setdefault(name, {})
        held = slots.get(key)
        if held is None:
            held = slots[key] = np.full(
                len(self._pools[name]), None, dtype=object
            )
        return held

    # -- the join ----------------------------------------------------------
    def first_rows(self, codes: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Per probe ``(codes[i], times[i])``, the position of the
        first row (in store order) with that grounding code and time,
        ``-1`` for none: a search among the rows of the probe's
        time-point, which the store keeps together."""
        own = self.times
        first = np.searchsorted(own, times, "left")
        at, probe = _time_matches(own, times, first)
        hit = self.codes[at] == codes[probe]
        at, probe = at[hit], probe[hit]
        # A probe's candidates ascend: its first hit is the first row.
        lead = np.ones(len(probe), dtype=bool)
        lead[1:] = probe[1:] != probe[:-1]
        out = np.full(len(times), -1, dtype=np.int64)
        out[probe[lead]] = at[lead]
        return out

    def join(
        self, partner: "ColumnStore", carry: Sequence[str] = ()
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per row, whether it has a partner: a ``partner`` row with
        the row's grounding code and time, the first of which it joins;
        and per row the position in ``partner`` of the row it joins if
        this call decided it (``-1`` otherwise), for
        :meth:`carried_ragged` to copy from without searching again.

        Decided once per row, for the rows that lack a decision, with
        ``partner``'s numeric fields ``carry`` copied beside it (NaN
        for none; :meth:`carried`).  A row lacks one when it was
        admitted since the last call, or when a partner row with its
        code and time was admitted since: that row may now be the
        first of the key, so the decision is re-opened, and the row's
        :meth:`carried_ragged` slices go with it, slots and all.  A
        partner serves one joining store, and every call names the
        same fields.
        """
        bufs = self._bufs
        if "joined" not in bufs:
            # -1: undecided; 0: no partner; 1: a partner.
            self._column("joined", np.int8, -1)
            for name in carry:
                self._column(("carried", name), np.float64, np.nan)
        live = slice(self._lo, self._hi)
        joined = bufs["joined"][live]
        self._reopen(partner, joined)
        undecided = np.flatnonzero(joined < 0)
        partner_rows = np.full(len(joined), -1, dtype=np.int64)
        if len(undecided):
            self.rows_joined += len(undecided)
            at = partner.first_rows(
                self.codes[undecided], self.times[undecided]
            )
            found = at >= 0
            joined[undecided] = found
            partner_rows[undecided] = at
            for name in carry:
                column = bufs["carried", name][live]
                column[undecided] = np.nan
                column[undecided[found]] = partner.col(name)[at[found]]
        return joined > 0, partner_rows

    def _reopen(self, partner: "ColumnStore", joined: np.ndarray) -> None:
        """Return to undecided (``-1`` in ``joined``) every decided row
        with the code and time of a partner row admitted since the
        last :meth:`join`; the partner's rows are then all seen."""
        if "unjoined" not in partner._bufs:
            partner._column("unjoined", bool, True)
        unjoined = partner._bufs["unjoined"][partner._lo:partner._hi]
        fresh = np.flatnonzero(unjoined)
        if not len(fresh):
            return
        unjoined[fresh] = False
        times = partner.times[fresh]
        at, probe = _time_matches(
            self.times, times, np.searchsorted(self.times, times, "left")
        )
        decided = joined[at] >= 0
        at, probe = at[decided], probe[decided]
        reopened = at[self.codes[at] == partner.codes[fresh][probe]]
        joined[reopened] = -1
        for name in self._carried:
            self._bufs["len", name][self._lo:self._hi][reopened] = -1

    def carried(self, name: str) -> np.ndarray:
        """Per row, the :meth:`join` partner's numeric field ``name``
        (NaN for none)."""
        return self._bufs["carried", name][self._lo:self._hi]

    def carried_ragged(
        self, partner: "ColumnStore", name, compute, partner_rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The partner's ragged column ``name`` (:meth:`ragged` of
        ``partner`` with ``compute``) carried to this store's rows: a
        row holds its :meth:`join` partner's slice (none without a
        partner), copied when the row first lacks it.  Call after
        :meth:`join`, with the partner positions it returned."""
        partner_starts, partner_lens, partner_values = partner.ragged(
            name, compute
        )
        self._carried.add(name)
        starts, lens = self._ragged_column(name)
        missing = np.flatnonzero(lens < 0)
        if len(missing):
            has = self._bufs["joined"][self._lo:self._hi][missing] > 0
            joined = missing[has]
            at = partner_rows[joined]
            # A row whose join an earlier call decided, and no slice
            # was asked for since: its partner is still the first row
            # of its key (an admitted one would have re-opened it).
            earlier = np.flatnonzero(at < 0)
            if len(earlier):
                rows = joined[earlier]
                at[earlier] = partner.first_rows(
                    self.codes[rows], self.times[rows]
                )
            copied = np.zeros(len(missing), dtype=np.int64)
            copied[has] = partner_lens[at]
            self._fill_ragged(
                name,
                missing,
                copied,
                partner_values[
                    ragged_index(partner_starts[at], partner_lens[at])
                ],
            )
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
