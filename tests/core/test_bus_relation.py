"""The pieces of the compiled bus-report family, each against the
interpreter's primitive it replaces: the move-gps join against
``RuleContext.fact_at`` — also after a ``gps`` row admitted late
re-opens it — the batched ``holdsAt`` probe against
``IntervalList.holds_at``."""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.columns import SDEColumns
from repro.core.compiled import (
    GPS_COLUMNS,
    MOVE_COLUMNS,
    HoldsAtIndex,
    bus_reports,
)
from repro.core.window import WorkingMemory
from repro.core.intervals import IntervalList
from repro.core.rules import RuleContext

from .helpers import bus_report, make_topology


def _memory(reports):
    """A working memory fed ``(move, gps)`` pairs; either half may be
    ``None``."""
    memory = WorkingMemory()
    memory.declare_columns("event", "move", MOVE_COLUMNS)
    memory.declare_columns("fact", "gps", GPS_COLUMNS)
    memory.buffer_columns(SDEColumns.from_sdes(
        [m for m, _ in reports if m is not None],
        [g for _, g in reports if g is not None],
    ))
    return memory


def _context(memory, q=1000):
    """The context of a query at ``q`` over ``memory``."""
    memory.admit(q, 0)
    return RuleContext(
        window_start=0, window_end=q, events={}, facts={}, params={},
        columns=memory,
    )


def _joined_as_fact_at(ctx):
    """Assert the join finds, per ``move`` row, what ``fact_at`` finds;
    returns the values of the joined ``gps`` rows (``None``: none)."""
    reports = bus_reports(ctx)
    moves = ctx.events("move")
    assert reports.move.records() == list(moves)
    fixes = reports.gps.records()
    rows = reports.gps_rows(np.arange(reports.move.n))
    found = []
    for move, row, joined in zip(
        moves, rows.tolist(), reports.joined.tolist()
    ):
        expected = ctx.fact_at("gps", (move["bus"],), move.time)
        if expected is None:
            assert row == -1 and not joined
        else:
            assert fixes[row].value == expected and joined
        found.append(expected)
    assert np.array_equal(
        reports.congestion,
        [np.nan if value is None else value["congestion"] for value in found],
        equal_nan=True,
    )
    return found


def test_join_finds_what_fact_at_finds():
    first = bus_report(20, bus="B1", congestion=1)
    ctx = _context(_memory([
        bus_report(10, bus="B1"),
        first,
        (None, bus_report(20, bus="B1", congestion=0)[1]),  # a second gps
        (bus_report(20, bus="B2")[0], None),  # gps lost
        (None, bus_report(30, bus="B2")[1]),  # move lost
        bus_report(30, bus="B1", lon=0.0),
        (bus_report(30, bus="B1")[0], None),  # a duplicate move
    ]))
    reports = bus_reports(ctx)
    assert bus_reports(ctx) is reports
    found = _joined_as_fact_at(ctx)
    assert found[1] == first[1].value
    # close/4 per move row: none without gps, none far away.
    starts, lens, close_to = reports.close(make_topology())
    assert lens.tolist() == [1, 1, 0, 0, 0]
    assert close_to[starts[0]] == 0


def test_a_gps_row_admitted_later_reopens_its_moves_only():
    late = 500
    memory = _memory([
        # Fed first, so ordered first among the gps rows of (B1, 20)
        # once it arrives: it becomes the row the move joins.
        (None, bus_report(20, bus="B1", congestion=1, arrival=late)[1]),
        bus_report(20, bus="B1", congestion=0),
        bus_report(20, bus="B2", congestion=0),
        (bus_report(30, bus="B3")[0], None),  # its gps comes late
        (None, bus_report(30, bus="B3", congestion=1, arrival=late)[1]),
    ])
    topology = make_topology()
    ctx = _context(memory, 300)
    reports = bus_reports(ctx)
    reports.close(topology)
    assert [v and v["congestion"] for v in _joined_as_fact_at(ctx)] == [
        0, 0, None,
    ]
    move = reports.move
    assert move.rows_joined == 3
    ctx = _context(memory, 600)
    reports = bus_reports(ctx)
    # B1's and B3's moves are decided anew; B2's is not.
    assert move.rows_joined == 5
    assert [v and v["congestion"] for v in _joined_as_fact_at(ctx)] == [
        1, 0, 1,
    ]
    starts, lens, _ = reports.close(topology)
    assert lens.tolist() == [1, 1, 1]


def test_a_slice_asked_for_after_its_join_was_decided_is_copied_right():
    """A ``close/4`` slice is copied from the ``gps`` row the join
    found, also for a row whose join an earlier query decided without
    reading ``close``."""
    topology = make_topology(n_intersections=2)
    second = topology.location("I2")[0]
    memory = _memory([
        bus_report(10, bus="B1", lon=second),
        bus_report(10, bus="B2", lon=0.0),
        bus_report(400, bus="B1"),
        bus_report(400, bus="B2", lon=second, arrival=450),
    ])
    reports = bus_reports(_context(memory, 300))
    assert reports.joined.tolist() == [True, True]
    reports = bus_reports(_context(memory, 600))
    starts, lens, close_to = reports.close(topology)
    assert [
        close_to[a:a + n].tolist()
        for a, n in zip(starts.tolist(), lens.tolist())
    ] == [[1], [], [0], [1]]


_intervals = st.lists(
    st.tuples(st.integers(-5, 60), st.one_of(st.none(), st.integers(-5, 60))),
    max_size=4,
).map(IntervalList)


@given(
    fluent=st.dictionaries(
        st.tuples(st.sampled_from("abcd")), _intervals, max_size=4
    ),
    probes=st.lists(
        st.tuples(st.sampled_from("abcde"), st.integers(-10, 70)), max_size=20
    ),
)
@example(  # an open interval starting after every end and every probe
    fluent={
        ("a",): IntervalList([(0, 1), (3, None)]),
        ("b",): IntervalList([(0, None)]),
    },
    probes=[("b", 0)],
)
def test_batched_holds_at_equals_the_interval_lookup(fluent, probes):
    codes = {("a",): 0, ("b",): 1, ("c",): 5, ("e",): 6}  # "d" is unknown
    index = HoldsAtIndex(fluent, codes.get)
    known = [(key, t) for key, t in probes if (key,) in codes]
    held = index.probe(
        np.array([codes[key,] for key, _ in known], dtype=np.int64),
        np.array([t for _, t in known], dtype=np.int64),
    )
    assert held.tolist() == [
        fluent.get((key,), IntervalList.empty()).holds_at(t)
        for key, t in known
    ]
