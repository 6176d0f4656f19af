"""Unit tests for the columnar SDE batch machinery.

Covers the three layers of ``repro.core.columns`` in isolation:

* batch construction (``EventColumns`` / ``FactColumns`` /
  ``SDEColumns``) and its canonical row enumeration;
* the working memory's :class:`ColumnStore` — append, eviction, rows
  admitted and evicted unseen, a delayed row sorted into place — with
  every row encoded exactly once and a record built only on request;
* the read interface the compiled evaluators consume, kept by the
  working memory in the layout the rules declared.

The end-to-end guarantees (identical recognition output) live in the
golden-trace and Hypothesis parity suites.
"""

import numpy as np
import pytest

from repro.core.columns import (
    ColumnSpec,
    EventColumns,
    FactColumns,
    SDEColumns,
)
from repro.core.events import Event, FluentFact
from repro.core.window import PendingBatch, WorkingMemory

from .helpers import event_columns

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
        restored = block.records(np.array([i]))[0]
        assert restored == original
        # Payload is the same object — zero-copy wrap.
        assert restored.payload is original.payload


def test_from_arrays_defaults_arrivals_to_times():
    block = event_columns(
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
    event = block.records(np.array([1]))[0]
    assert event["density"] == 2.0
    assert event["sensor"] == "d2"
    assert event.arrival == 20


def test_from_arrays_rejects_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        event_columns(
            "traffic", [10, 20], numeric={"density": [1.0]}
        )


def test_fact_columns_roundtrip():
    facts = [
        FluentFact("gps", ("B1",), {"lon": 1.0, "congestion": 1}, 30, 45)
    ]
    block = FactColumns.from_facts("gps", facts)
    assert block.records(np.array([0]))[0] == facts[0]


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


def test_empty_batch():
    batch = SDEColumns.from_sdes([], [])
    assert batch.n == 0
    assert batch.blocks == ()


def test_validate_rejects_negative_times():
    batch = SDEColumns.from_sdes([_traffic_event(10)], [])
    batch.validate()  # fine
    bad = SDEColumns.from_sdes(
        [Event("traffic", -5, {"density": 1.0}, 0)], []
    )
    with pytest.raises(ValueError):
        bad.validate()


def test_validate_rejects_an_event_arriving_before_it_occurs():
    block = event_columns(
        "traffic", [10, 40, 50], arrivals=[10, 39, 20],
        numeric={"density": [1.0, 2.0, 3.0]},
    )
    with pytest.raises(
        ValueError,
        match="event of type 'traffic' arrives at 39 before it occurs at 40",
    ):
        SDEColumns([block]).validate()


def test_validate_rejects_a_fact_arriving_before_it_occurs():
    block = FactColumns(
        "gps", np.array([10, 40]), np.array([10, 30]),
        key_columns=(["B1", "B2"],), value_fields={"lon": [1.0, 2.0]},
    )
    with pytest.raises(
        ValueError,
        match="fluent fact 'gps' arrives at 30 before it occurs at 40",
    ):
        SDEColumns([], [block]).validate()
    # The record constructors say the same, in the same words.
    with pytest.raises(ValueError, match="arrives at 30 before it occurs"):
        FluentFact("gps", ("B2",), {"lon": 2.0}, 40, 30)


def test_feed_columns_fails_closed_on_an_early_arrival():
    """The engine refuses the batch when it is fed — also for a row a
    query would have skipped behind its horizon, which no record
    constructor would ever have seen."""
    from repro.core import RTEC

    engine = RTEC([], window=100, step=50, params={})
    block = event_columns(
        "traffic", [5, 400], arrivals=[4, 400], numeric={"density": [1.0, 2.0]}
    )
    with pytest.raises(ValueError, match="arrives at 4 before it occurs at 5"):
        engine.feed_columns(SDEColumns([block]))
    assert engine.query(400).n_events == 0


def test_pending_batch_keeps_canonical_order_and_builds_lazily():
    events = [_traffic_event(10), _traffic_event(40)]
    facts = [FluentFact("gps", ("B1",), {"lon": 1.0}, 20, 60)]
    pending = PendingBatch(SDEColumns.from_sdes(events, facts), first_seq=7)
    # Canonical order (event blocks, then fact blocks) numbers the rows.
    assert pending.arrival.tolist() == [10, 40, 60]
    assert pending.seq.tolist() == [8, 9, 10]
    assert len(pending) == 3
    def taken(q):
        groups, skipped = pending.take_due(q, horizon=10)
        return [
            (block, rows.tolist(), times.tolist(), seqs.tolist())
            for block, rows, times, seqs in groups
        ], skipped

    # The row at the horizon is dropped on the time array; the others
    # come as (block, rows, times, seqs) — no record is built.
    assert taken(40) == ([(0, [1], [40], [9])], 1)
    assert len(pending) == 1
    assert taken(60) == ([(1, [0], [20], [10])], 0)
    assert len(pending) == 0
    assert taken(90) == ([], 0)


def test_iter_events_matches_originals():
    events = [_traffic_event(10), _traffic_event(40)]
    batch = SDEColumns.from_sdes(events, [])
    assert list(batch.iter_events()) == events


# ----------------------------------------------------------------------
# ColumnStore: the working memory's window
# ----------------------------------------------------------------------
def _memory(*events):
    """A working memory that keeps ``traffic`` columns, with ``events``
    buffered (they are admitted by arrival time)."""
    memory = WorkingMemory()
    memory.declare_columns("event", "traffic", TRAFFIC)
    _feed(memory, *events)
    return memory


def _feed(memory, *events):
    memory.buffer_columns(SDEColumns.from_sdes(events, []))


def _columns(memory):
    return memory.store("event", "traffic")


def _at(t, **fields):
    return _traffic_event(t, density=float(t), **fields)


def test_mirror_appends_incrementally():
    memory = _memory(_at(10), _at(20), _at(30))
    memory.admit(20, 0)
    assert _columns(memory).times.tolist() == [10, 20]
    assert _columns(memory).col("density").tolist() == [10.0, 20.0]
    assert memory.rows_encoded == 2
    memory.admit(30, 0)
    view = _columns(memory)
    assert view.times.tolist() == [10, 20, 30]
    assert view.col("density").tolist() == [10.0, 20.0, 30.0]
    # The third row was encoded alone, not the window again — and no
    # record was built for any of them.
    assert memory.rows_encoded == 3
    assert memory.rows_materialised == 0


def test_mirror_tracks_eviction():
    memory = _memory(_at(10), _at(20), _at(30))
    memory.admit(30, 0)
    assert _columns(memory).n == 3
    memory.evict(15)
    view = _columns(memory)
    assert view.times.tolist() == [20, 30]
    assert [ev.time for ev in view.records()] == [20, 30]


def test_mirror_rows_admitted_and_evicted_between_reads():
    """Rows admitted *and* evicted between two reads: the columns never
    showed them, and must not show them now."""
    memory = _memory(_at(10), _at(20), _at(30), _at(40), _at(50))
    memory.admit(20, 0)
    assert _columns(memory).times.tolist() == [10, 20]
    memory.admit(50, 0)
    memory.evict(45)  # evicts 4 rows, 2 of them never read
    view = _columns(memory)
    assert view.times.tolist() == [50]
    assert view.col("density").tolist() == [50.0]


def test_mirror_out_of_order_insert_sorts_into_place():
    memory = _memory(_at(10), _at(30), _at(20, arrival=40))  # delayed SDE
    memory.admit(30, 0)
    assert _columns(memory).times.tolist() == [10, 30]
    memory.admit(40, 0)
    view = _columns(memory)
    assert view.times.tolist() == [10, 20, 30]
    assert view.col("density").tolist() == [10.0, 20.0, 30.0]
    assert [ev.time for ev in view.records()] == [10, 20, 30]
    # ...by encoding the late row only.
    assert memory.rows_encoded == 3


def test_mirror_equal_times_keep_feed_order():
    """Rows of one time-point stay in feed (sequence) order however
    they arrive."""
    events = [_at(10, sensor=name, arrival=a) for name, a in
              (("d1", 30), ("d2", 10), ("d3", 20))]
    memory = _memory(*events)
    for q, held in ((10, "2"), (20, "23"), (30, "123")):
        memory.admit(q, 0)
        view = _columns(memory)
        assert [ev["sensor"] for ev in view.records()] == [
            "d" + n for n in held
        ]
        assert view.records() == [events[int(n) - 1] for n in held]


def test_mirror_token_rows_group_by_grounding():
    memory = _memory(
        _at(10, sensor="d1"), _at(20, sensor="d2"), _at(30, sensor="d1")
    )
    memory.admit(30, 0)
    view = _columns(memory)
    codes = view.codes.tolist()
    assert codes[0] == codes[2] != codes[1]
    assert view.tokens.tokens[codes[1]] == ("I1", "N", "d2")
    assert view.tokens.get(("I1", "N", "d1")) == codes[0]


def test_mirror_ragged_column_is_computed_once_per_row():
    """A lazily joined column is computed for the rows that lack it
    and then travels with them through merges and evictions."""
    asked = []

    def compute(rows):
        asked.append(view.times[rows].tolist())
        # Row at time t -> the t // 10 values t, t, ...
        lens = view.times[rows] // 10
        return (
            np.concatenate(([0], np.cumsum(lens))),
            np.repeat(view.times[rows], lens),
        )

    def slices():
        starts, lens, values = view.ragged("echo", compute)
        return [
            values[a:a + n].tolist()
            for a, n in zip(starts.tolist(), lens.tolist())
        ]

    memory = _memory(_at(10), _at(30), _at(20, arrival=40), _at(50))
    memory.admit(30, 0)
    view = _columns(memory)
    assert slices() == [[10], [30, 30, 30]]
    memory.admit(50, 0)
    memory.evict(10)
    view = _columns(memory)
    assert slices() == [[20, 20], [30, 30, 30], [50] * 5]
    assert asked == [[10, 30], [20, 50]]
    assert memory.rows_close_decided == 4


def test_mirror_excluded_from_pickle():
    import pickle

    memory = _memory(_at(10), _at(20))
    memory.admit(20, 0)
    assert _columns(memory).n == 2
    assert _columns(memory).col("density").tolist() == [10.0, 20.0]
    restored = pickle.loads(pickle.dumps(memory))
    assert _columns(restored).times.tolist() == [10, 20]
    # The restored memory encodes the window once, on first read.
    assert restored.rows_encoded == 0
    assert _columns(restored).col("density").tolist() == [10.0, 20.0]
    assert restored.rows_encoded == 2
    assert _columns(restored).tokens is restored.tokens


# ----------------------------------------------------------------------
# What the store's arrays say about the records they were fed with
# ----------------------------------------------------------------------
def test_list_view_matches_mirror_view():
    events = [
        _traffic_event(10, density=1.0, sensor="d1"),
        _traffic_event(20, density=2.0, sensor="d2"),
        _traffic_event(30, density=3.0, sensor="d1"),
    ]
    memory = _memory(*events)
    memory.admit(30, 0)
    view = _columns(memory)
    assert view.n == len(events)
    assert view.times.tolist() == [ev.time for ev in events]
    assert [view.tokens.tokens[c] for c in view.codes.tolist()] == [
        tuple(ev[name] for name in TRAFFIC.token) for ev in events
    ]
    assert view.col("density").tolist() == [ev["density"] for ev in events]
    assert view.records()[1].payload is events[1].payload
    assert view.cells("sensor", np.array([2, 1])) == ["d1", "d2"]


def test_fact_columns_take_the_key_as_token():
    facts = [
        FluentFact("gps", ("B2",), {"lon": 1.0, "lat": 2.0}, 20),
        FluentFact("gps", ("B1",), {"lon": 3.0, "lat": 4.0}, 10),
    ]
    memory = WorkingMemory()
    memory.declare_columns("fact", "gps", ColumnSpec(numeric=("lon",)))
    memory.buffer_columns(SDEColumns.from_sdes([], facts))
    memory.admit(20, 0)
    view = memory.store("fact", "gps")
    assert view.times.tolist() == [10, 20]
    assert view.col("lon").tolist() == [3.0, 1.0]
    assert [view.tokens.tokens[c] for c in view.codes.tolist()] == [
        ("B1",), ("B2",)
    ]


def test_views_cover_subset_specs():
    """Two rules reading one type share one store: their numeric
    fields merge by union, and conflicting grounding-token layouts
    are refused when the second is declared."""
    memory = WorkingMemory()
    for numeric in (("density",), ("flow",)):
        memory.declare_columns(
            "event", "traffic", ColumnSpec(numeric, TRAFFIC.token)
        )
    _feed(memory, _traffic_event(10, density=7.0, flow=300.0))
    memory.admit(10, 0)
    view = _columns(memory)
    assert view.col("density").tolist() == [7.0]
    assert view.col("flow").tolist() == [300.0]
    with pytest.raises(ValueError, match="conflicting grounding-token"):
        memory.declare_columns("event", "traffic", ColumnSpec(token=("bus",)))
