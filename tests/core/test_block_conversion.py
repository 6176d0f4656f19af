"""The one conversion from objects to column blocks, over drawn streams.

``SDEColumns.from_sdes`` turns every payload field, key position and
fact value (or value field) into an object column holding the records'
own cells.  Reading the rows back must give records equal to the ones
fed, with ``type(cell)`` preserved cell for cell — an ``int`` stays an
``int`` beside a ``bool`` or a ``float`` in the same column — and so
must a pickled block and a block cut with ``take`` (rows repeated).
Tier-1 runs a fixed derandomised budget; given ``--hypothesis-seed``
(CI's ``chaos`` job draws one) a larger one.
"""

import pickle
from collections.abc import Mapping

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import SDEColumns
from repro.core.events import Event, FluentFact

#: A cell: what a payload field, key position or plain value may hold,
#: mixed down a column.
CELLS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
)
FIELDS = st.lists(
    st.sampled_from(["bus", "delay", "lon", "lat", "flow", "answer"]),
    unique=True,
    max_size=4,
)
STAMPS = st.tuples(st.integers(0, 10_000), st.integers(0, 300))


def _budget(request):
    seeded = request.config.getoption("hypothesis_seed", None) is not None
    return settings(
        max_examples=1000 if seeded else 150,
        derandomize=not seeded,
        deadline=None,
    )


@st.composite
def event_streams(draw):
    """Events of up to three types, each with its own payload fields
    (0–4), interleaved."""
    events = []
    for etype in draw(
        st.lists(st.sampled_from(["traffic", "move", "crowd", "ping"]),
                 unique=True, max_size=3)
    ):
        names = draw(FIELDS)
        for time, delay in draw(st.lists(STAMPS, max_size=6)):
            payload = {name: draw(CELLS) for name in names}
            events.append(Event(etype, time, payload, time + delay))
    return draw(st.permutations(events))


@st.composite
def fact_streams(draw):
    """Facts of up to two fluents, each with its key length (0–3) and
    either mapping values (0–4 fields) or plain values, interleaved."""
    facts = []
    for name in draw(
        st.lists(st.sampled_from(["gps", "noisy", "weather"]),
                 unique=True, max_size=2)
    ):
        width = draw(st.integers(0, 3))
        fields = draw(st.one_of(st.none(), FIELDS))
        for time, delay in draw(st.lists(STAMPS, max_size=6)):
            key = tuple(draw(CELLS) for _ in range(width))
            value = (
                draw(CELLS)
                if fields is None
                else {field: draw(CELLS) for field in fields}
            )
            facts.append(FluentFact(name, key, value, time, time + delay))
    return draw(st.permutations(facts))


def _cells(record) -> list:
    """Every cell of a record, in order, as ``(name, value)`` pairs."""
    if isinstance(record, Event):
        return [("time", record.time), ("arrival", record.arrival)] + list(
            record.payload.items()
        )
    cells = [("time", record.time), ("arrival", record.arrival)]
    cells += [(i, cell) for i, cell in enumerate(record.key)]
    value = record.value
    if isinstance(value, Mapping):
        return cells + list(value.items())
    return cells + [("value", value)]


def _assert_same(got: list, expected: list) -> None:
    assert got == expected
    for a, b in zip(got, expected):
        assert [(k, type(v)) for k, v in _cells(a)] == [
            (k, type(v)) for k, v in _cells(b)
        ]


def _originals(block, events, facts) -> list:
    if hasattr(block, "type"):
        return [ev for ev in events if ev.type == block.type]
    return [fact for fact in facts if fact.name == block.name]


def _assert_holds(batch: SDEColumns, events, facts) -> None:
    assert batch.n == len(events) + len(facts)
    for block in batch.blocks:
        _assert_same(
            block.records(np.arange(len(block))),
            _originals(block, events, facts),
        )


def test_records_come_back_cell_for_cell(request):
    @_budget(request)
    @given(events=event_streams(), facts=fact_streams(), data=st.data())
    def check(events, facts, data):
        batch = SDEColumns.from_sdes(events, facts)
        _assert_holds(batch, events, facts)
        _assert_holds(pickle.loads(pickle.dumps(batch)), events, facts)
        for block in batch.blocks:
            originals = _originals(block, events, facts)
            rows = data.draw(
                st.lists(st.integers(0, len(block) - 1), max_size=8)
            )
            cut = block.take(np.array(rows, dtype=np.int64))
            _assert_same(
                cut.records(np.arange(len(rows))),
                [originals[i] for i in rows],
            )

    check()
