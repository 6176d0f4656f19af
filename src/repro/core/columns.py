"""Columnar (struct-of-arrays) SDE batches and working-memory mirrors.

The per-event-object hot path pays a Python-level attribute access and
dict lookup per SDE per rule body per query.  This module provides the
columnar representation behind the compiled fast path:

* :class:`SDEColumns` — the ingestion batch type: one block of
  ``numpy`` time/arrival arrays and typed field columns per event type
  (:class:`EventColumns`) or fact name (:class:`FactColumns`).  The
  simulators emit it, fault injection and the region split transform
  it, and the engine's pending buffer keeps it: an ``Event`` or
  ``FluentFact`` object is built only for a row admitted into a window
  (:class:`RecordSequence` is the lazy object view for everyone else).
* :class:`ColumnSpec` — a compiled rule's declaration of which payload
  fields it reads as numeric columns and which identify the grounding
  token.
* :class:`ColumnMirror` — a struct-of-arrays mirror of the window's
  rows of one event type (or one input fluent), in the working
  memory's ``(time, seq)`` order: occurrence times, declared numeric
  fields, integer codes of the grounding tokens (:class:`TokenCodes`)
  and the records themselves.  A :class:`~.incremental.WorkingMemory` feeds it what it
  admits — each record is encoded once; a delayed SDE is sorted into
  place, an eviction advances the live range — and lazily joined
  variable-length columns (the ``close`` join) stay with their rows.
  Without a working memory (legacy mode, restricted contexts) the same
  object is built from an object list per query.

Everything here is representation only: compiled evaluators
(:mod:`repro.core.compiled`) read the columns, and every emitted point
is built from Python ints and the original payload objects, so the
recognition output is bit-identical to the interpreter's.
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


def _numeric_column(values) -> np.ndarray:
    """``numeric=`` shorthand: integers stay ``int64``, the rest is
    ``float64``."""
    col = np.asarray(values)
    return col.astype(np.int64 if col.dtype.kind in "iub" else np.float64)


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
    * ``fields`` is the fully columnar form the simulators and
      :meth:`from_arrays` produce: one typed array per payload field
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

    @classmethod
    def from_arrays(
        cls,
        etype: str,
        times,
        *,
        arrivals=None,
        numeric: Optional[Mapping[str, Any]] = None,
        extra: Optional[Mapping[str, Sequence[Any]]] = None,
    ) -> "EventColumns":
        """Build from raw arrays (anything :func:`numpy.asarray` takes).

        ``arrivals`` defaults to the occurrence times; ``numeric``
        columns become ``float64`` — or ``int64`` when handed integers
        — and ``extra`` columns stay Python objects (strings, ids).
        Payload keys come in that order; all columns must share one
        length.
        """
        times = np.asarray(times, dtype=np.int64)
        arr = (
            times
            if arrivals is None
            else np.asarray(arrivals, dtype=np.int64)
        )
        fields: dict[str, Any] = {
            name: _numeric_column(col)
            for name, col in (numeric or {}).items()
        }
        fields.update(extra or {})
        return cls(etype, times, arr, fields=fields)

    def column(self, name: str) -> np.ndarray:
        """One payload field as an array (an object array built from
        the payloads when the block wraps objects)."""
        if self.payloads is None:
            return self.fields[name]
        return np.fromiter(
            (payload[name] for payload in self.payloads),
            dtype=object,
            count=len(self.payloads),
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

    def event(self, i: int) -> Event:
        """Materialise row ``i`` as an :class:`Event`."""
        return self.records(np.array([i]))[0]

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
        return np.fromiter(
            (value[field] for value in self.values),
            dtype=object,
            count=len(self.values),
        )

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
        if self.keys is not None:
            picked = rows.tolist()
            keys = [self.keys[i] for i in picked]
            values = [self.values[i] for i in picked]
        else:
            keys = (
                list(zip(*(col[rows].tolist() for col in self.key_columns)))
                if self.key_columns
                else [()] * len(rows)
            )
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

    def fact(self, i: int) -> FluentFact:
        """Materialise row ``i`` as a :class:`FluentFact`."""
        return self.records(np.array([i]))[0]

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

    def __repr__(self) -> str:
        return f"<RecordSequence of {self._len} records>"


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

    def max_arrival(self) -> Optional[int]:
        """Latest arrival time in the batch (``None`` when empty)."""
        candidates = [
            int(block.arrivals.max()) for block in self.blocks if len(block)
        ]
        return max(candidates) if candidates else None

    def validate(self) -> None:
        """Reject negative occurrence times, as :meth:`RTEC.feed` does
        per object — vectorised over each block."""
        for block in self.events:
            if len(block) and int(block.times.min()) < 0:
                raise ValueError(
                    f"event of type {block.type!r} occurs at negative "
                    "time; SDE timestamps must be >= 0"
                )
        for block in self.facts:
            if len(block) and int(block.times.min()) < 0:
                raise ValueError(
                    f"fluent fact {block.name!r} occurs at negative "
                    "time; SDE timestamps must be >= 0"
                )

    def iter_events(self) -> Iterator[Event]:
        """Materialise every event row (legacy-engine feed path)."""
        for block in self.events:
            yield from block.records(np.arange(len(block)))

    def iter_facts(self) -> Iterator[FluentFact]:
        """Materialise every fact row (legacy-engine feed path)."""
        for block in self.facts:
            yield from block.records(np.arange(len(block)))


# ----------------------------------------------------------------------
# Working-memory mirrors
# ----------------------------------------------------------------------
class TokenCodes:
    """Dense integer codes for grounding tokens.

    One table serves every :class:`ColumnMirror` of a working memory
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

    def encode(self, tokens: Iterable[tuple]) -> np.ndarray:
        """The codes of ``tokens``, numbering the unseen ones."""
        codes, table = self._codes, self.tokens
        out = []
        for token in tokens:
            code = codes.get(token)
            if code is None:
                code = codes[token] = len(table)
                table.append(token)
            out.append(code)
        return np.array(out, dtype=np.int64)


def ragged_index(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The positions ``starts[i] .. starts[i] + lens[i] - 1`` of every
    ``i``, concatenated: the gather index of a batch of slices."""
    first = np.cumsum(lens) - lens
    return np.repeat(starts - first, lens) + np.arange(int(lens.sum()))


class ColumnMirror:
    """Struct-of-arrays mirror of one event type's — or one input
    fluent's — window rows, in the ``(time, seq)`` order the working
    memory keeps its records in.

    Per row: occurrence time, feed sequence number, the ``float64``
    value of every numeric field of the spec, the integer code of the
    grounding token (the spec's token fields of an event payload, the
    key of a fact) and the record itself.  Compiled rule bodies read
    these instead of iterating objects.

    A working memory keeps one mirror per declared type and feeds it
    what changed: :meth:`merge` encodes *only the newly admitted
    records* and sorts them into place (an in-order arrival appends; a
    delayed one re-sorts the tail from its time on), :meth:`evict`
    advances the live range.  Every record is encoded once in its life.
    Without a working memory (the legacy engine, restricted contexts)
    :meth:`from_records` builds the same thing from an object list per
    query.

    :meth:`ragged` attaches a lazily computed variable-length column
    (the ``close`` join: the intersections a ``gps`` position is close
    to): computed once per row, on first request, and carried through
    merges and evictions with the row.

    Mirrors are process-local caches: never pickled, rebuilt from the
    records on first use after a restore.
    """

    __slots__ = (
        "spec", "is_fact", "tokens", "fresh", "rows_encoded",
        "rows_ragged", "_bufs", "_pools", "_lo", "_hi",
    )

    def __init__(self, spec: ColumnSpec, is_fact: bool, tokens: TokenCodes):
        self.spec = spec
        self.is_fact = is_fact
        self.tokens = tokens
        #: ``(time, seq, record)`` of rows admitted since the last
        #: :meth:`sync`, appended by the working memory.
        self.fresh: list[tuple[int, int, Any]] = []
        #: Rows encoded from records, and rows a ragged column was
        #: computed for, over this instance's life.
        self.rows_encoded = 0
        self.rows_ragged = 0
        #: Column name -> buffer; rows ``_lo .. _hi - 1`` are live.
        self._bufs: dict[Any, np.ndarray] = {
            "time": np.empty(0, dtype=np.int64),
            "seq": np.empty(0, dtype=np.int64),
            "code": np.empty(0, dtype=np.int64),
            "item": np.empty(0, dtype=object),
        }
        for name in spec.numeric:
            self._bufs["field", name] = np.empty(0, dtype=np.float64)
        #: Ragged column name -> its values; a row's slice starts at
        #: ``_bufs["start", name]`` and is ``_bufs["len", name]`` long
        #: (negative: not computed yet).
        self._pools: dict[Any, np.ndarray] = {}
        self._lo = 0
        self._hi = 0

    @classmethod
    def from_records(
        cls,
        records: Sequence,
        spec: ColumnSpec,
        is_fact: bool,
        tokens: TokenCodes,
    ) -> "ColumnMirror":
        """The columns of ``records``, stably sorted by time."""
        columns = cls(spec, is_fact, tokens)
        columns.merge(
            [record.time for record in records],
            range(len(records)),
            records,
        )
        return columns

    # -- maintenance ---------------------------------------------------
    def sync(self, horizon: Optional[int]) -> None:
        """Merge the rows admitted since the last call and drop those
        at or before the working memory's eviction ``horizon``."""
        if self.fresh:
            self.merge(*zip(*self.fresh))
            self.fresh = []
        if horizon is not None:
            self.evict(horizon)

    def _encode(self, times, seqs, records) -> dict[Any, np.ndarray]:
        k = len(records)
        if self.is_fact:
            mappings = [record.value for record in records]
            tokens = [record.key for record in records]
        else:
            mappings = [record.payload for record in records]
            fields = self.spec.token
            tokens = [
                tuple([mapping[f] for f in fields]) for mapping in mappings
            ]
        fresh = {
            "time": np.fromiter(times, np.int64, count=k),
            "seq": np.fromiter(seqs, np.int64, count=k),
            "code": self.tokens.encode(tokens),
            "item": np.fromiter(records, dtype=object, count=k),
        }
        for name in self.spec.numeric:
            fresh["field", name] = np.array(
                [mapping[name] for mapping in mappings], dtype=np.float64
            )
        for name in self._pools:
            fresh["start", name] = np.zeros(k, dtype=np.int64)
            fresh["len", name] = np.full(k, -1, dtype=np.int64)
        return fresh

    def merge(self, times, seqs, records) -> None:
        """Encode ``records`` (any order) and sort them into place."""
        k = len(records)
        if not k:
            return
        self.rows_encoded += k
        fresh = self._encode(times, seqs, records)
        self._reserve(k)
        lo, hi = self._lo, self._hi
        bufs = self._bufs
        # Everything before the earliest fresh time keeps its place.
        p = lo + int(
            np.searchsorted(bufs["time"][lo:hi], fresh["time"].min(), "left")
        )
        order = np.lexsort((
            np.concatenate((bufs["seq"][p:hi], fresh["seq"])),
            np.concatenate((bufs["time"][p:hi], fresh["time"])),
        ))
        for name, buf in bufs.items():
            buf[p:hi + k] = np.concatenate((buf[p:hi], fresh[name]))[order]
        self._hi = hi + k

    def _reserve(self, k: int) -> None:
        """Room for ``k`` more rows, dropping the evicted prefix and
        the dead slices of the ragged pools when it has to move."""
        lo, hi = self._lo, self._hi
        if hi + k <= len(self._bufs["time"]):
            return
        live = hi - lo
        capacity = max(2 * (live + k), 64)
        for name, buf in self._bufs.items():
            grown = np.empty(capacity, dtype=buf.dtype)
            grown[:live] = buf[lo:hi]
            self._bufs[name] = grown
        self._lo, self._hi = 0, live
        for name, pool in self._pools.items():
            start = self._bufs["start", name][:live]
            lens = np.maximum(self._bufs["len", name][:live], 0)
            self._pools[name] = pool[ragged_index(start, lens)]
            start[:] = np.cumsum(lens) - lens

    def evict(self, horizon: int) -> None:
        """Drop the rows with occurrence time ``<= horizon``."""
        lo = self._lo
        cut = int(np.searchsorted(self.times, horizon, "right"))
        if cut:
            self._bufs["item"][lo:lo + cut] = None
            self._lo = lo + cut

    # -- reads ---------------------------------------------------------
    @property
    def n(self) -> int:
        return self._hi - self._lo

    @property
    def times(self) -> np.ndarray:
        return self._bufs["time"][self._lo:self._hi]

    @property
    def codes(self) -> np.ndarray:
        """Per row, the :class:`TokenCodes` code of its grounding."""
        return self._bufs["code"][self._lo:self._hi]

    @property
    def items(self) -> np.ndarray:
        """Per row, the record it was encoded from."""
        return self._bufs["item"][self._lo:self._hi]

    def col(self, name: str) -> np.ndarray:
        """The ``float64`` array of a declared numeric field."""
        return self._bufs["field", name][self._lo:self._hi]

    def covers(self, spec: ColumnSpec) -> bool:
        """Whether these columns expose everything ``spec`` requires
        (same grounding-token layout, numeric fields a superset)."""
        mine = self.spec
        return mine.token == spec.token and all(
            name in mine.numeric for name in spec.numeric
        )

    def ragged(self, name, compute) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The variable-length column ``name`` as ``(starts, lens,
        values)``: row ``i`` holds ``values[starts[i]:starts[i] +
        lens[i]]``.  Rows that lack it get it now, from
        ``compute(rows) -> (offsets, values)`` (a CSR pair over the
        given row indexes); it then stays with the row."""
        if name not in self._pools:
            size = len(self._bufs["time"])
            self._pools[name] = np.empty(0, dtype=np.int64)
            self._bufs["start", name] = np.zeros(size, dtype=np.int64)
            self._bufs["len", name] = np.full(size, -1, dtype=np.int64)
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
