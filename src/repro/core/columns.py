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
* :class:`ColumnMirror` — a struct-of-arrays mirror maintained
  alongside a working-memory :class:`~.incremental.TimedColumn`:
  occurrence times, declared numeric fields and factorised grounding
  tokens as growable arrays, plus per-token *integer row-index*
  sub-indexes.  Appends extend the arrays in place; evictions advance
  a start offset; an out-of-order insert (a delayed SDE) triggers a
  full rebuild — correctness never depends on the incremental path.
* views (:class:`MirrorView` / :class:`ListColumnView`) — the uniform
  read interface compiled evaluators consume; the list-backed build is
  the fallback for contexts that have no mirror (legacy mode, the
  token-restricted contexts of dirty-grounding re-derivation).

Everything here is representation only: compiled evaluators
(:mod:`repro.core.compiled`) read views, and every emitted point is
built from Python ints and the original payload objects, so the
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
def _grow(array: np.ndarray, n: int, needed: int) -> np.ndarray:
    """An array with capacity for ``n + needed`` rows (amortised)."""
    cap = len(array)
    if n + needed <= cap:
        return array
    new_cap = max(cap * 2, n + needed, 64)
    grown = np.empty(new_cap, dtype=array.dtype)
    grown[:n] = array[:n]
    return grown


class ColumnMirror:
    """Struct-of-arrays mirror of one working-memory column.

    Mirrors the column's ``(time, seq)``-sorted items as ``int64``
    times, declared ``float64`` numeric fields and factorised grounding
    tokens, plus per-token integer row-index sub-indexes.  Kept
    consistent through three operations, matched to the column's
    mutation counters:

    * *append* (in-order arrival, the common case): encode the new
      suffix in place;
    * *evict* (window slide): advance the dead-prefix offset — O(1),
      with periodic compaction;
    * *out-of-order insert* (a delayed SDE landed mid-column): full
      rebuild.  Rare by construction, and the rebuild costs what a
      single legacy query already paid per window.

    Mirrors are process-local caches: excluded from pickling and
    rebuilt lazily after a restore.
    """

    __slots__ = (
        "spec", "_column", "_times", "_numeric", "_token_tuples",
        "_groups", "_n", "_dead", "_seen_evictions", "_seen_mutations",
        "version", "_views", "_token_rows_cache",
    )

    def __init__(self, column, spec: ColumnSpec):
        self.spec = spec
        self._column = column
        self._times = np.empty(0, dtype=np.int64)
        self._numeric: dict[str, np.ndarray] = {
            name: np.empty(0, dtype=np.float64) for name in spec.numeric
        }
        #: storage-row -> grounding tuple (object column).
        self._token_tuples: list[tuple] = []
        #: grounding tuple -> ascending storage-row indexes.
        self._groups: dict[tuple, list[int]] = {}
        self._n = 0  # rows encoded (live + dead prefix)
        self._dead = 0  # evicted rows still occupying the prefix
        self._seen_evictions = 0
        self._seen_mutations = 0
        self.version = 0
        self._views: dict[tuple[int, int], MirrorView] = {}
        self._token_rows_cache: Optional[dict[tuple, np.ndarray]] = None

    # -- synchronisation ----------------------------------------------
    def sync(self) -> None:
        """Bring the mirror up to date with its column."""
        column = self._column
        if column.mutations != self._seen_mutations:
            self._rebuild()
            return
        changed = False
        if column.evictions != self._seen_evictions:
            self._dead += column.evictions - self._seen_evictions
            self._seen_evictions = column.evictions
            if self._dead > self._n:
                # Evictions overshot the encoded rows: the column lost
                # rows that were appended *and* evicted between syncs,
                # so the offset arithmetic no longer identifies the
                # live prefix — re-encode from scratch.
                self._rebuild()
                return
            changed = True
            if self._dead > 256 and self._dead * 2 > self._n:
                self._compact()
        new = len(column.items) - (self._n - self._dead)
        if new > 0:
            self._encode(column.items[self._n - self._dead:], column.times)
            changed = True
        if changed:
            self.version += 1
            self._views.clear()
            self._token_rows_cache = None

    def _rebuild(self) -> None:
        column = self._column
        self._times = np.empty(0, dtype=np.int64)
        self._numeric = {
            name: np.empty(0, dtype=np.float64) for name in self.spec.numeric
        }
        self._token_tuples = []
        self._groups = {}
        self._n = 0
        self._dead = 0
        self._seen_mutations = column.mutations
        self._seen_evictions = column.evictions
        self._encode(column.items, column.times)
        self.version += 1
        self._views.clear()
        self._token_rows_cache = None

    def _encode(self, items, times: list[int]) -> None:
        """Append ``items`` (the column's newest suffix) to the arrays."""
        k = len(items)
        if not k:
            return
        n = self._n
        self._times = _grow(self._times, n, k)
        self._times[n:n + k] = times[len(times) - k:]
        for name in self.spec.numeric:
            col = _grow(self._numeric[name], n, k)
            payload_values = [item.payload[name] for item in items]
            col[n:n + k] = payload_values
            self._numeric[name] = col
        token_fields = self.spec.token
        tuples = self._token_tuples
        groups = self._groups
        for offset, item in enumerate(items):
            payload = item.payload
            token = tuple(payload[f] for f in token_fields)
            tuples.append(token)
            rows = groups.get(token)
            if rows is None:
                rows = groups[token] = []
            rows.append(n + offset)
        self._n = n + k

    def _compact(self) -> None:
        """Shift the live suffix down over the dead prefix."""
        dead, n = self._dead, self._n
        live = n - dead
        self._times[:live] = self._times[dead:n].copy()
        for name, col in self._numeric.items():
            col[:live] = col[dead:n].copy()
        del self._token_tuples[:dead]
        compacted: dict[tuple, list[int]] = {}
        for token, rows in self._groups.items():
            kept = [r - dead for r in rows if r >= dead]
            if kept:
                compacted[token] = kept
        self._groups = compacted
        self._n = live
        self._dead = 0

    # -- reads ---------------------------------------------------------
    def live_view(self) -> "MirrorView":
        """The whole live window as a view."""
        return self._view(self._dead, self._n)

    def view_bounds(self, i: int, j: int) -> "MirrorView":
        """A view over the column's item range ``[i, j)``."""
        return self._view(self._dead + i, self._dead + j)

    def _view(self, a: int, b: int) -> "MirrorView":
        view = self._views.get((a, b))
        if view is None:
            view = self._views[(a, b)] = MirrorView(self, a, b)
        return view

    def item(self, storage_row: int):
        """The underlying record at an absolute storage row."""
        return self._column.items[storage_row - self._dead]

    def live_token_rows(self) -> dict[tuple, np.ndarray]:
        """Per-token live row indexes, relative to the live window."""
        cached = self._token_rows_cache
        if cached is None:
            dead = self._dead
            cached = {}
            for token, rows in self._groups.items():
                arr = np.asarray(rows, dtype=np.int64)
                k = int(np.searchsorted(arr, dead)) if dead else 0
                if k < len(arr):
                    cached[token] = arr[k:] - dead
            self._token_rows_cache = cached
        return cached


class MirrorView:
    """A slice of a :class:`ColumnMirror` in the uniform view shape."""

    __slots__ = ("_mirror", "_a", "_b", "n", "times", "_times_list",
                 "_tokens", "_token_rows")

    def __init__(self, mirror: ColumnMirror, a: int, b: int):
        self._mirror = mirror
        self._a = a
        self._b = b
        self.n = b - a
        self.times = mirror._times[a:b]
        self._times_list: Optional[list[int]] = None
        self._tokens: Optional[list[tuple]] = None
        self._token_rows: Optional[dict[tuple, np.ndarray]] = None

    def covers(self, spec: ColumnSpec) -> bool:
        """Whether this view exposes everything ``spec`` requires
        (same grounding-token layout, numeric fields a superset)."""
        mine = self._mirror.spec
        return mine.token == spec.token and all(
            name in mine.numeric for name in spec.numeric
        )

    @property
    def times_list(self) -> list[int]:
        if self._times_list is None:
            self._times_list = self.times.tolist()
        return self._times_list

    def col(self, name: str) -> np.ndarray:
        """The ``float64`` array of a declared numeric payload field."""
        return self._mirror._numeric[name][self._a:self._b]

    @property
    def tokens(self) -> list[tuple]:
        if self._tokens is None:
            self._tokens = self._mirror._token_tuples[self._a:self._b]
        return self._tokens

    def token_rows(self) -> dict[tuple, np.ndarray]:
        """Ascending row indexes (relative to this view) per token."""
        if self._token_rows is None:
            mirror = self._mirror
            if self._a == mirror._dead and self._b == mirror._n:
                self._token_rows = mirror.live_token_rows()
            else:
                a, b = self._a, self._b
                out: dict[tuple, np.ndarray] = {}
                for token, rows in mirror._groups.items():
                    arr = np.asarray(rows, dtype=np.int64)
                    i = int(np.searchsorted(arr, a))
                    j = int(np.searchsorted(arr, b))
                    if i < j:
                        out[token] = arr[i:j] - a
                self._token_rows = out
        return self._token_rows

    def item(self, i: int):
        """The underlying record object at view row ``i``."""
        return self._mirror.item(self._a + i)


class ListColumnView:
    """The fallback view, built from an event list per requested spec.

    Used where no mirror applies: legacy engines, token-restricted
    contexts, and column specs a working memory was not declared for.
    Construction is O(n) — still far cheaper than interpreting, and
    contexts memoise it per ``(event type, spec)``.
    """

    __slots__ = ("_events", "spec", "n", "times", "_numeric",
                 "_times_list", "_tokens", "_token_rows")

    def __init__(self, events: Sequence[Event], spec: ColumnSpec):
        self._events = events
        self.spec = spec
        n = self.n = len(events)
        self.times = np.fromiter(
            (ev.time for ev in events), np.int64, count=n
        )
        self._numeric: dict[str, np.ndarray] = {}
        self._times_list: Optional[list[int]] = None
        self._tokens: Optional[list[tuple]] = None
        self._token_rows: Optional[dict[tuple, np.ndarray]] = None

    def covers(self, spec: ColumnSpec) -> bool:
        """Whether this view satisfies ``spec`` (see
        :meth:`MirrorView.covers`)."""
        mine = self.spec
        return mine.token == spec.token and all(
            name in mine.numeric for name in spec.numeric
        )

    @property
    def times_list(self) -> list[int]:
        if self._times_list is None:
            self._times_list = self.times.tolist()
        return self._times_list

    def col(self, name: str) -> np.ndarray:
        """The ``float64`` array of a payload field, built on demand."""
        col = self._numeric.get(name)
        if col is None:
            col = self._numeric[name] = np.fromiter(
                (ev.payload[name] for ev in self._events),
                np.float64,
                count=self.n,
            )
        return col

    @property
    def tokens(self) -> list[tuple]:
        if self._tokens is None:
            fields = self.spec.token
            self._tokens = [
                tuple(ev.payload[f] for f in fields) for ev in self._events
            ]
        return self._tokens

    def token_rows(self) -> dict[tuple, np.ndarray]:
        """Ascending row indexes per grounding token (see
        :meth:`MirrorView.token_rows`)."""
        if self._token_rows is None:
            grouped: dict[tuple, list[int]] = {}
            for i, token in enumerate(self.tokens):
                rows = grouped.get(token)
                if rows is None:
                    rows = grouped[token] = []
                rows.append(i)
            self._token_rows = {
                token: np.asarray(rows, dtype=np.int64)
                for token, rows in grouped.items()
            }
        return self._token_rows

    def item(self, i: int) -> Event:
        """The underlying event object at view row ``i``."""
        return self._events[i]


class ColumnSource:
    """A deferred view over one working-memory column, handed to rule
    contexts by the engine.  ``view()`` syncs the mirror on first use
    within the query, so definitions that fall back to the interpreter
    never pay for encoding."""

    __slots__ = ("column", "spec", "lo", "hi")

    def __init__(
        self,
        column,
        spec: ColumnSpec,
        lo: Optional[int] = None,
        hi: Optional[int] = None,
    ):
        self.column = column
        self.spec = spec
        self.lo = lo
        self.hi = hi

    def view(self) -> MirrorView:
        """Sync the mirror and return the bounded (or live) view."""
        mirror = self.column.mirror_for(self.spec)
        mirror.sync()
        if self.lo is None:
            return mirror.live_view()
        i, j = self.column.bounds(self.lo, self.hi)
        return mirror.view_bounds(i, j)
