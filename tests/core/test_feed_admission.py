"""Object feeds and columnar feeds admit through one pending buffer
into one window store.

``RTEC.feed`` converts its objects with ``SDEColumns.from_sdes`` — which
groups them by type, so sequence numbers are *not* global feed order —
and enters through the same ``PendingBatch`` buffer as
``feed_columns``.  What recognition may rely on is stated here from
the definition of a window, not by comparison with another engine:
after every query each working-memory column — one per event type, one
per input fluent — holds exactly the rows that have arrived and
occurred inside the window, ordered by occurrence time and, within a
time, by feed order within that column; a row delayed past the window
it occurred in is never admitted; and the per-grounding view of a
fluent is a stable grouping of its column.  The engine's window is
arrays; it is read here through the store's own record view.  A pickle
round trip in the middle of a sequence — whole, or streamless and
refilled — changes nothing that is admitted afterwards, and an engine
whose definition has no compiled form (``Echo`` beside
``CompilableEcho``) holds and recognises the same.
"""

import pickle
from operator import attrgetter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RTEC, Event, FluentFact
from repro.core.columns import (
    ColumnSpec,
    FactColumns,
    SDEColumns,
)
from repro.core.compiled import CompiledRule
from repro.core.events import Occurrence
from repro.core.window import streamless_checkpoint

from .helpers import event_columns
from .test_pending_batch import Echo

WINDOW, STEP = 100, 40

PINGS = ColumnSpec(numeric=("id",), token=("id",))


class CompiledEcho(CompiledRule):
    """:class:`Echo` over the ``ping`` columns: codes, a numeric field
    and the exact cell of every row."""

    columns = {("event", "ping"): PINGS, ("fact", "gps"): ColumnSpec()}

    def derive(self, ctx, selection=None):
        pings = ctx.events_columns("ping", PINGS)
        rows = np.arange(pings.n)
        if selection is not None:
            rows = rows[selection.parts(pings) >= 0]
        assert pings.col("id")[rows].tolist() == [
            token[0] for token in map(
                pings.tokens.tokens.__getitem__, pings.codes[rows].tolist()
            )
        ]
        # A compiled derived event hands its occurrences over in
        # (time, key) order.
        return {
            "occ": sorted(
                (
                    Occurrence("echo", (n,), time, {"id": n})
                    for n, time in zip(
                        pings.cells("id", rows), pings.times[rows].tolist()
                    )
                ),
                key=attrgetter("time", "key"),
            )
        }


class CompilableEcho(Echo):
    def compiled(self, params):
        return CompiledEcho()


# Few distinct stamps and ids: equal times, equal arrivals and outright
# duplicate records are the common case, not the rare one.  A lag of
# 130 or 260 lands a row behind the horizon of the first query that
# could admit it (the window is 100): it is counted and never held.
_stamps = st.tuples(
    st.integers(0, 12).map(lambda i: i * 25),
    st.sampled_from((0, 0, 0, 5, 40, 90, 130, 260)),
)
_ids = st.integers(0, 3)
_events = st.builds(
    lambda etype, stamp, n: Event(etype, stamp[0], {"id": n}, sum(stamp)),
    st.sampled_from(("ping", "pong", "crowd")),
    _stamps,
    _ids,
)
_facts = st.builds(
    lambda name, key, stamp, n: FluentFact(
        name, (key,), {"id": n} if name == "gps" else bool(n % 2),
        stamp[0], sum(stamp),
    ),
    st.sampled_from(("gps", "noisy")),
    st.sampled_from(("b1", "b2")),
    _stamps,
    _ids,
)
_feed = st.tuples(
    st.just("feed"), st.lists(_events, max_size=5), st.lists(_facts, max_size=4)
)
_columns = st.tuples(
    st.just("columns"),
    st.lists(st.tuples(_stamps, _ids), max_size=5),
    st.lists(_facts.filter(lambda f: f.name == "gps"), max_size=3),
)
_ops = st.lists(
    st.one_of(
        _feed,
        _columns,
        st.tuples(st.just("query"), st.integers(1, 3)),
        st.tuples(st.just("pickle"), st.booleans()),
    ),
    min_size=3,
    max_size=14,
)


def _array_batch(rows, facts) -> tuple[SDEColumns, list]:
    """A typed ``ping`` block plus an object-column ``gps`` block, and
    the records they stand for in canonical (feed) order."""
    times = np.array([stamp[0] for stamp, _ in rows], dtype=np.int64)
    arrivals = np.array([sum(stamp) for stamp, _ in rows], dtype=np.int64)
    ids = np.array([n for _, n in rows], dtype=np.int64)
    pings = event_columns(
        "ping", times, arrivals=arrivals, numeric={"id": ids}
    )
    records = [
        Event("ping", int(t), {"id": int(n)}, int(a))
        for t, a, n in zip(times, arrivals, ids)
    ]
    return (
        SDEColumns([pings], [FactColumns.from_facts("gps", facts)]),
        records + list(facts),
    )


def _column_of(record):
    if isinstance(record, FluentFact):
        return ("fact", record.name)
    return ("event", record.type)


def expected_window(fed, q):
    """``column -> records`` from the definition of a window: whatever
    was fed, has arrived by ``q`` and occurred in ``(q - WINDOW, q]``,
    by occurrence time and then by feed order within the column."""
    columns = {}
    for record in fed:  # feed order; the sort below is stable
        if record.arrival <= q and q - WINDOW < record.time <= q:
            columns.setdefault(_column_of(record), []).append(record)
    return {
        column: sorted(records, key=lambda record: record.time)
        for column, records in columns.items()
    }


def held_window(engine):
    """What the engine holds, through the stores' record views."""
    held = {key: store.records() for key, store in engine._wm._stores.items()}
    for (kind, _), store in engine._wm._stores.items():
        if kind == "fact":
            # The per-grounding view is a stable grouping of the column.
            by_key = {}
            for fact in store.records():
                by_key.setdefault(fact.key, []).append(fact)
            assert {
                key: facts for key, (_, facts) in store.by_key().items()
            } == by_key
    return {column: items for column, items in held.items() if items}


def _restored(engine, initial, q, streamless):
    if not streamless:
        return pickle.loads(pickle.dumps(engine))
    with streamless_checkpoint():
        blob = pickle.dumps(engine)
    engine = pickle.loads(blob)
    engine.refill_columns(initial, q)
    return engine


@settings(max_examples=120, deadline=None)
@given(stream=_columns, ops=_ops)
def test_interleaved_feeds_admit_exactly_the_window(stream, ops):
    # A compiled body and its interpreted twin, fed alike.
    engines = [
        RTEC([definition], window=WINDOW, step=STEP, params={})
        for definition in (CompilableEcho(), Echo())
    ]
    initial, fed = _array_batch(*stream[1:])
    for engine in engines:
        engine.feed_columns(initial)
        engine.mark_stream_fed()
    q = previous = -1
    fed_by_previous = 0
    for op in ops:
        if op[0] == "feed":
            for engine in engines:
                engine.feed(op[1], op[2])
            fed += op[1] + op[2]
        elif op[0] == "columns":
            batch, records = _array_batch(*op[1:])
            for engine in engines:
                engine.feed_columns(batch)
            fed += records
        elif op[0] == "pickle":
            engines = [_restored(e, initial, q, op[1]) for e in engines]
        else:
            previous, q = q, max(q, 0) + op[1] * STEP
            # Due now: arrived since the previous query, or fed since
            # (whenever it arrived).  First admitted now if inside
            # this window; dropped behind the horizon otherwise.
            due = [
                record
                for index, record in enumerate(fed)
                if record.arrival <= q
                and (record.arrival > previous or index >= fed_by_previous)
            ]
            fresh = [record for record in due if record.time > q - WINDOW]
            snapshots = [engine.query(q) for engine in engines]
            for engine, snapshot in zip(engines, snapshots):
                assert held_window(engine) == expected_window(fed, q)
                assert snapshot.rows_admitted == len(fresh)
                assert snapshot.rows_skipped_horizon == len(due) - len(fresh)
                assert snapshot.n_new_events == sum(
                    isinstance(record, Event) for record in fresh
                )
            default, interpreting = snapshots
            assert default.occurrences == interpreting.occurrences
            assert default.compiled_evals and not interpreting.compiled_evals
            fed_by_previous = len(fed)
