"""Unit tests for the columnar SDE batch machinery.

Covers the three layers of ``repro.core.columns`` in isolation:

* batch construction (``EventColumns`` / ``FactColumns`` /
  ``SDEColumns``) and its canonical row enumeration;
* the working-memory :class:`ColumnMirror` sync protocol — append,
  eviction, eviction overshoot and out-of-order rebuild;
* the read views (``MirrorView`` / ``ListColumnView``) the compiled
  evaluators consume.

The end-to-end guarantees (identical recognition output) live in the
golden-trace and Hypothesis parity suites.
"""

import numpy as np
import pytest

from repro.core.columns import (
    ColumnMirror,
    ColumnSpec,
    EventColumns,
    FactColumns,
    ListColumnView,
    SDEColumns,
)
from repro.core.events import Event, FluentFact
from repro.core.incremental import PendingBatch, TimedColumn

TRAFFIC = ColumnSpec(
    numeric=("density", "flow"),
    token=("intersection", "approach", "sensor"),
)


def _traffic_event(t, density=50.0, flow=800.0, arrival=None, sensor="d1"):
    return Event(
        "traffic",
        t,
        {
            "intersection": "I1",
            "approach": "N",
            "sensor": sensor,
            "density": density,
            "flow": flow,
        },
        arrival if arrival is not None else t,
    )


# ----------------------------------------------------------------------
# ColumnSpec
# ----------------------------------------------------------------------
def test_spec_merge_unions_numeric_fields():
    a = ColumnSpec(numeric=("density",), token=("sensor",))
    b = ColumnSpec(numeric=("flow",), token=("sensor",))
    merged = a.merge(b)
    assert merged == ColumnSpec(
        numeric=("density", "flow"), token=("sensor",)
    )


def test_spec_merge_conflicting_tokens_is_none():
    a = ColumnSpec(token=("sensor",))
    b = ColumnSpec(token=("bus",))
    assert a.merge(b) is None


def test_spec_merge_identical_is_self():
    a = ColumnSpec(numeric=("density",), token=("sensor",))
    assert a.merge(ColumnSpec(numeric=("density",), token=("sensor",))) is a


# ----------------------------------------------------------------------
# Batch construction
# ----------------------------------------------------------------------
def test_from_events_materialises_identical_objects():
    events = [_traffic_event(10), _traffic_event(40, arrival=70)]
    block = EventColumns.from_events("traffic", events)
    assert len(block) == 2
    assert block.times.tolist() == [10, 40]
    assert block.arrivals.tolist() == [10, 70]
    for i, original in enumerate(events):
        restored = block.event(i)
        assert restored == original
        # Payload is the same object — zero-copy wrap.
        assert restored.payload is original.payload


def test_from_arrays_defaults_arrivals_to_times():
    block = EventColumns.from_arrays(
        "traffic",
        [10, 20],
        numeric={"density": [1.0, 2.0], "flow": [3.0, 4.0]},
        extra={
            "intersection": ["I1", "I1"],
            "approach": ["N", "N"],
            "sensor": ["d1", "d2"],
        },
    )
    assert block.arrivals.tolist() == [10, 20]
    event = block.event(1)
    assert event["density"] == 2.0
    assert event["sensor"] == "d2"
    assert event.arrival == 20


def test_from_arrays_rejects_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        EventColumns.from_arrays(
            "traffic", [10, 20], numeric={"density": [1.0]}
        )


def test_fact_columns_roundtrip():
    facts = [
        FluentFact("gps", ("B1",), {"lon": 1.0, "congestion": 1}, 30, 45)
    ]
    block = FactColumns.from_facts("gps", facts)
    assert block.fact(0) == facts[0]


def test_sde_columns_groups_by_type_and_counts():
    batch = SDEColumns.from_sdes(
        [
            _traffic_event(10),
            Event("move", 20, {"bus": "B1", "delay": 5}, 25),
            _traffic_event(30),
        ],
        [FluentFact("gps", ("B1",), {"lon": 1.0}, 20, 25)],
    )
    assert {b.type for b in batch.events} == {"traffic", "move"}
    assert batch.n_events == 3
    assert batch.n_facts == 1
    assert batch.n == 4
    assert batch.max_arrival() == 30


def test_empty_batch():
    batch = SDEColumns.from_sdes([], [])
    assert batch.n == 0
    assert batch.max_arrival() is None
    assert batch.blocks == ()


def test_validate_rejects_negative_times():
    batch = SDEColumns.from_sdes([_traffic_event(10)], [])
    batch.validate()  # fine
    bad = SDEColumns.from_sdes(
        [Event("traffic", -5, {"density": 1.0}, 0)], []
    )
    with pytest.raises(ValueError):
        bad.validate()


def test_pending_batch_keeps_canonical_order_and_builds_lazily():
    events = [_traffic_event(10), _traffic_event(40)]
    facts = [FluentFact("gps", ("B1",), {"lon": 1.0}, 20, 60)]
    pending = PendingBatch(SDEColumns.from_sdes(events, facts), first_seq=7)
    # Canonical order (event blocks, then fact blocks) numbers the rows.
    assert pending.arrival.tolist() == [10, 40, 60]
    assert pending.seq.tolist() == [8, 9, 10]
    assert len(pending) == 3
    def taken(q):
        (arrival, seq, is_fact, records), skipped = pending.take_due(
            q, horizon=10
        )
        return (
            arrival.tolist(), seq.tolist(), is_fact.tolist(), records,
        ), skipped

    # The row at the horizon is dropped from the time array, unbuilt.
    assert taken(40) == (([40], [9], [False], [events[1]]), 1)
    assert len(pending) == 1
    assert taken(60) == (([60], [10], [True], [facts[0]]), 0)
    assert len(pending) == 0


def test_iter_events_matches_originals():
    events = [_traffic_event(10), _traffic_event(40)]
    batch = SDEColumns.from_sdes(events, [])
    assert list(batch.iter_events()) == events


# ----------------------------------------------------------------------
# ColumnMirror sync protocol
# ----------------------------------------------------------------------
def _filled_column(times):
    column = TimedColumn()
    for seq, t in enumerate(times):
        column.insert(t, seq, _traffic_event(t, density=float(t)))
    return column


def _synced_mirror(column):
    mirror = column.mirror_for(TRAFFIC)
    mirror.sync()
    return mirror


def test_mirror_appends_incrementally():
    column = _filled_column([10, 20])
    mirror = _synced_mirror(column)
    view = mirror.live_view()
    assert view.times_list == [10, 20]
    version = mirror.version
    column.insert(30, 2, _traffic_event(30, density=30.0))
    mirror.sync()
    view = mirror.live_view()
    assert view.times_list == [10, 20, 30]
    assert view.col("density").tolist() == [10.0, 20.0, 30.0]
    assert mirror.version != version


def test_mirror_tracks_eviction():
    column = _filled_column([10, 20, 30])
    mirror = _synced_mirror(column)
    column.evict(15)
    mirror.sync()
    assert mirror.live_view().times_list == [20, 30]


def test_mirror_eviction_overshoot_rebuilds():
    """Rows appended *and* evicted between two syncs: the mirror never
    saw them, so its dead-prefix arithmetic would misalign — it must
    fall back to a full rebuild."""
    column = _filled_column([10, 20])
    mirror = _synced_mirror(column)
    for seq, t in enumerate((30, 40, 50), start=2):
        column.insert(t, seq, _traffic_event(t, density=float(t)))
    column.evict(45)  # evicts 4 rows, 2 of them never mirrored
    mirror.sync()
    view = mirror.live_view()
    assert view.times_list == [50]
    assert view.col("density").tolist() == [50.0]


def test_mirror_out_of_order_insert_rebuilds():
    column = _filled_column([10, 30])
    mirror = _synced_mirror(column)
    column.insert(20, 5, _traffic_event(20, density=20.0))  # delayed SDE
    mirror.sync()
    view = mirror.live_view()
    assert view.times_list == [10, 20, 30]
    assert view.col("density").tolist() == [10.0, 20.0, 30.0]


def test_mirror_token_rows_group_by_grounding():
    column = TimedColumn()
    for seq, (t, sensor) in enumerate(
        [(10, "d1"), (20, "d2"), (30, "d1")]
    ):
        column.insert(t, seq, _traffic_event(t, sensor=sensor))
    mirror = _synced_mirror(column)
    groups = mirror.live_view().token_rows()
    assert groups[("I1", "N", "d1")].tolist() == [0, 2]
    assert groups[("I1", "N", "d2")].tolist() == [1]


def test_mirror_bounded_view_windows_rows():
    column = _filled_column([10, 20, 30, 40])
    mirror = _synced_mirror(column)
    view = mirror.view_bounds(*column.bounds(15, 35))
    assert view.times_list == [20, 30]
    assert view.item(0).time == 20


def test_mirror_excluded_from_pickle():
    import pickle

    column = _filled_column([10, 20])
    _synced_mirror(column)
    restored = pickle.loads(pickle.dumps(column))
    assert restored.mirror is None
    assert restored.times == [10, 20]
    # A fresh mirror on the restored column sees the same rows.
    assert _synced_mirror(restored).live_view().times_list == [10, 20]


# ----------------------------------------------------------------------
# ListColumnView fallback
# ----------------------------------------------------------------------
def test_list_view_matches_mirror_view():
    events = [
        _traffic_event(10, density=1.0, sensor="d1"),
        _traffic_event(20, density=2.0, sensor="d2"),
        _traffic_event(30, density=3.0, sensor="d1"),
    ]
    column = TimedColumn()
    for seq, ev in enumerate(events):
        column.insert(ev.time, seq, ev)
    mirror_view = _synced_mirror(column).live_view()
    list_view = ListColumnView(events, TRAFFIC)
    assert list_view.n == mirror_view.n
    assert list_view.times_list == mirror_view.times_list
    assert list_view.tokens == mirror_view.tokens
    np.testing.assert_array_equal(
        list_view.col("density"), mirror_view.col("density")
    )
    assert {
        token: rows.tolist() for token, rows in list_view.token_rows().items()
    } == {
        token: rows.tolist()
        for token, rows in mirror_view.token_rows().items()
    }
    assert list_view.item(1) is events[1]


def test_views_cover_subset_specs():
    events = [_traffic_event(10)]
    view = ListColumnView(events, TRAFFIC)
    assert view.covers(ColumnSpec(numeric=("density",), token=TRAFFIC.token))
    assert not view.covers(ColumnSpec(token=("bus",)))
