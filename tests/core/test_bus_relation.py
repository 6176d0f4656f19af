"""The pieces of the compiled bus-report family, each against the
interpreter's primitive it replaces: the move-gps join against
``RuleContext.fact_at``, the batched ``holdsAt`` probe against
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


def _context(reports):
    """A context over a working memory holding ``(move, gps)`` pairs;
    either half may be ``None``."""
    memory = WorkingMemory()
    memory.declare_columns("event", "move", MOVE_COLUMNS)
    memory.declare_columns("fact", "gps", GPS_COLUMNS)
    memory.buffer_columns(SDEColumns.from_sdes(
        [m for m, _ in reports if m is not None],
        [g for _, g in reports if g is not None],
    ))
    memory.admit(1000, 0)
    return RuleContext(
        window_start=0, window_end=1000, events={}, facts={}, params={},
        columns=memory,
    )


def test_join_finds_what_fact_at_finds():
    first = bus_report(20, bus="B1", congestion=1)
    ctx = _context([
        bus_report(10, bus="B1"),
        first,
        (None, bus_report(20, bus="B1", congestion=0)[1]),  # a second gps
        (bus_report(20, bus="B2")[0], None),  # gps lost
        (None, bus_report(30, bus="B2")[1]),  # move lost
        bus_report(30, bus="B1", lon=0.0),
        (bus_report(30, bus="B1")[0], None),  # a duplicate move
    ])
    reports = bus_reports(ctx)
    assert bus_reports(ctx) is reports
    moves = ctx.events("move")
    assert reports.move.records() == list(moves)
    fixes = reports.gps.records()
    for move, row in zip(moves, reports.gps_row.tolist()):
        expected = ctx.fact_at("gps", (move["bus"],), move.time)
        if expected is None:
            assert row == -1
        else:
            assert fixes[row].value is expected
    assert fixes[reports.gps_row[1]].value is first[1].value
    # close/4 per move row: none without gps, none far away.
    starts, lens, close_to = reports.close(make_topology())
    assert lens.tolist() == [1, 1, 0, 0, 0]
    assert close_to[starts[0]] == 0


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
