"""Object feeds and columnar feeds admit through one pending buffer.

``RTEC.feed`` wraps its objects with ``SDEColumns.from_sdes`` — which
groups them by type, so sequence numbers are *not* global feed order —
and enters through the same ``PendingBatch`` buffer as
``feed_columns``.  What recognition may rely on is stated here from
the definition of a window, not by comparison with another engine:
after every query each working-memory column holds exactly the rows
that have arrived and occurred inside the window, ordered by
occurrence time and, within a time, by feed order within that column.
A pickle round trip in the middle of a sequence — whole, or streamless
and refilled — changes nothing that is admitted afterwards.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RTEC, Event, FluentFact
from repro.core.columns import EventColumns, FactColumns, SDEColumns
from repro.core.incremental import streamless_checkpoint

from .test_pending_batch import Echo

WINDOW, STEP = 100, 40

# Few distinct stamps and ids: equal times, equal arrivals and outright
# duplicate records are the common case, not the rare one.
_stamps = st.tuples(
    st.integers(0, 12).map(lambda i: i * 25),
    st.sampled_from((0, 0, 0, 5, 40, 90, 260)),
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
    """An array-native ``ping`` block plus a wrapped ``gps`` block, and
    the records they stand for in canonical (feed) order."""
    times = np.array([stamp[0] for stamp, _ in rows], dtype=np.int64)
    arrivals = np.array([sum(stamp) for stamp, _ in rows], dtype=np.int64)
    ids = np.array([n for _, n in rows], dtype=np.int64)
    pings = EventColumns.from_arrays(
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
        return (record.name, record.key)
    return record.type


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
    wm = engine._wm
    held = {etype: list(col.items) for etype, col in wm.events.items()}
    held.update({key: list(col.items) for key, col in wm.facts.items()})
    return {column: items for column, items in held.items() if items}


@settings(max_examples=120, deadline=None)
@given(stream=_columns, ops=_ops)
def test_interleaved_feeds_admit_exactly_the_window(stream, ops):
    engine = RTEC([Echo()], window=WINDOW, step=STEP, params={})
    initial, fed = _array_batch(*stream[1:])
    engine.feed_columns(initial)
    engine.mark_stream_fed()
    q = previous = -1
    fed_by_previous = 0
    for op in ops:
        if op[0] == "feed":
            engine.feed(op[1], op[2])
            fed += op[1] + op[2]
        elif op[0] == "columns":
            batch, records = _array_batch(*op[1:])
            engine.feed_columns(batch)
            fed += records
        elif op[0] == "pickle":
            if op[1]:
                with streamless_checkpoint():
                    blob = pickle.dumps(engine)
                engine = pickle.loads(blob)
                engine.refill_columns(initial, q)
            else:
                engine = pickle.loads(pickle.dumps(engine))
        else:
            previous, q = q, max(q, 0) + op[1] * STEP
            snapshot = engine.query(q)
            assert held_window(engine) == expected_window(fed, q)
            # First admitted now: inside this window, and either not
            # arrived or not yet fed when the previous query ran.
            fresh = [
                record
                for index, record in enumerate(fed)
                if record.arrival <= q
                and record.time > q - WINDOW
                and (record.arrival > previous or index >= fed_by_previous)
            ]
            assert snapshot.rows_materialised == len(fresh)
            assert snapshot.n_new_events == sum(
                isinstance(record, Event) for record in fresh
            )
            fed_by_previous = len(fed)
