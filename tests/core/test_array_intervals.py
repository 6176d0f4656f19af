"""The array interval functions give what the scalar loops gave, in
the same order.

``RTEC._simple_intervals`` / ``_valued_intervals`` build every
grounding's intervals from point arrays
(:func:`repro.core.intervals.simple_intervals` /
:func:`~repro.core.intervals.valued_intervals`).  The loops they
replaced, kept verbatim in ``tests/reference/scalar_intervals.py``,
are the reference: for the values, and — since the order of a
snapshot's groundings reaches the alerts and the crowd (ROADMAP finding
F5) and comes from a ``set`` — for the order of the returned dict and
of the mutated inertia cache, which only they specify.  Both run in
this process, so under this process's hash seed; over a few queries in
a row, from a drawn cache, with the points given the way a compiled
body gives them (codes over a table numbered in any order) and the way
an interpreted body's are encoded.

The draws reach: duplicate points; an initiation and a termination at
one time; points at or before the window start (the ``end > start``
guard); seeded and unseeded groundings, quiescent cached groundings
and cached episodes that ended before the seed point; for a valued
fluent several values initiated at once, the termination of the held
value, of another value and of a value re-initiated at that time,
several cached values of one grounding; groundings with terminations
only; empty streams; a value table mixing values that do not compare
with each other, and ``None`` (where the scalar loop raised — values
that do not compare initiated at one point — the example is dropped:
there is nothing to compare with).  Tier-1 runs a fixed derandomised budget; given
``--hypothesis-seed`` (CI's ``chaos`` job draws one) a larger one.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.core import RTEC
from repro.core.intervals import (
    _OPEN,
    IntervalList,
    _held_segments,
    _normalise,
    _points,
    encode_points,
    simple_intervals,
    valued_intervals,
)
from tests.reference.scalar_intervals import ScalarIntervals

NAME = "f"
#: String-keyed groundings, as the traffic suite's: their set order
#: moves with the hash seed.
POOL = tuple((f"S{i:02d}",) for i in range(9)) + (("I1", "A"), ("I2", "B"))
VALUES = ("free", "synchronized", "congested", "x")
#: Strings and numbers do not compare; ``None`` compares with nothing.
MIXED = ("free", 3, None, 2.5)
FIRST_WINDOW_START = 1000


def _budget(request):
    seeded = request.config.getoption("hypothesis_seed", None) is not None
    return settings(
        max_examples=500 if seeded else 80,
        derandomize=not seeded,
        deadline=None,
    )


_cached = st.lists(
    st.tuples(
        st.integers(FIRST_WINDOW_START - 40, FIRST_WINDOW_START + 60),
        st.one_of(st.none(), st.integers(1, 25)),
    ),
    min_size=1,
    max_size=3,
).map(
    lambda pieces: IntervalList(
        (start, None if length is None else start + length)
        for start, length in pieces
    )
)


def _query(valued):
    """One query's window-start advance and points: ``(grounding
    index, time)`` or ``(grounding index, value index, time)``; the
    times reach two points before the window start."""
    point = st.tuples(
        st.integers(0, len(POOL) - 1),
        *([st.integers(0, len(VALUES) - 1)] if valued else []),
        st.integers(-1, 14),
    )
    return st.tuples(
        st.integers(0, 15),
        st.lists(point, max_size=20),
        st.lists(point, max_size=20),
    )


def _cache(valued, values=VALUES):
    """A drawn inertia cache; a valued fluent's never holds ``None``."""
    key = st.sampled_from(POOL)
    if valued:
        held = [value for value in values if value is not None]
        key = st.tuples(key, st.sampled_from(held)).map(
            lambda kv: kv[0] + (kv[1],)
        )
    return st.dictionaries(key, _cached, max_size=8).map(
        lambda cache: {k: v for k, v in cache.items() if v}
    )


def _streams(points, groundings, values, window_start, encoding, valued):
    """The scalar loops' tuples and the engine's streams for one
    query's drawn points."""
    tuples = []
    for stream in points:
        tuples.append([
            (groundings[p[0]],)
            + ((values[p[1]],) if valued else ())
            + (window_start + p[-1],)
            for p in stream
        ])
    if encoding == "interpreted":
        return tuples, encode_points(*tuples, valued=valued)
    streams = {}
    for name, stream in zip(("init", "term"), points):
        columns = np.array(stream, dtype=np.int64).reshape(-1, 3 if valued else 2).T
        columns[-1] += window_start
        streams[name] = tuple(columns)
    streams["groundings"] = groundings.__getitem__
    if valued:
        streams["values"] = values
    return tuples, streams


def _check(cache, queries, groundings, values, encoding, valued):
    engine = RTEC([], window=100, step=10)
    engine._fluent_cache = {NAME: dict(cache)}
    scalar = ScalarIntervals({NAME: dict(cache)})
    build = "_valued_intervals" if valued else "_simple_intervals"
    window_start = FIRST_WINDOW_START
    for advance, init, term in queries:
        window_start += advance
        ctx = SimpleNamespace(window_start=window_start)
        (init_t, term_t), streams = _streams(
            (init, term), groundings, values, window_start, encoding, valued
        )
        try:
            expected = getattr(scalar, build)(NAME, ctx, init_t, term_t)
        except TypeError:
            reject()
        got = getattr(engine, build)(NAME, ctx, streams)
        assert list(got.items()) == list(expected.items())
        assert list(engine._fluent_cache[NAME].items()) == list(
            scalar._fluent_cache[NAME].items()
        )
        for intervals in got.values():
            for bound in (b for iv in intervals for b in iv if b is not None):
                assert type(bound) is int


ENCODINGS = pytest.mark.parametrize("encoding", ["compiled", "interpreted"])


@ENCODINGS
def test_simple_fluent_matches_the_scalar_loop(request, encoding):
    @_budget(request)
    @given(
        cache=_cache(False),
        queries=st.lists(_query(False), min_size=1, max_size=3),
        groundings=st.permutations(POOL),
    )
    def check(cache, queries, groundings):
        _check(cache, queries, groundings, None, encoding, valued=False)

    check()


@ENCODINGS
def test_valued_fluent_matches_the_scalar_loop(request, encoding):
    @_budget(request)
    @given(
        cache=_cache(True),
        queries=st.lists(_query(True), min_size=1, max_size=3),
        groundings=st.permutations(POOL),
        values=st.permutations(VALUES),
    )
    def check(cache, queries, groundings, values):
        _check(cache, queries, groundings, values, encoding, valued=True)

    check()


@ENCODINGS
def test_valued_fluent_of_mixed_values_matches_the_scalar_loop(request, encoding):
    @_budget(request)
    @given(
        cache=_cache(True, MIXED),
        queries=st.lists(_query(True), min_size=1, max_size=3),
        groundings=st.permutations(POOL),
        values=st.permutations(MIXED),
    )
    def check(cache, queries, groundings, values):
        _check(cache, queries, groundings, values, encoding, valued=True)

    check()


# ----------------------------------------------------------------------
# The cases named above, pinned
# ----------------------------------------------------------------------
WS = FIRST_WINDOW_START
HELD = IntervalList.single(WS - 30, None)


def _both(valued, cache, init, term):
    """Engine and scalar loop on one query of interpreted points;
    asserts they agree (order included) and returns the output."""
    ctx = SimpleNamespace(window_start=WS)
    engine = RTEC([], window=100, step=10)
    engine._fluent_cache = {NAME: dict(cache)}
    scalar = ScalarIntervals({NAME: dict(cache)})
    build = "_valued_intervals" if valued else "_simple_intervals"
    expected = getattr(scalar, build)(NAME, ctx, init, term)
    got = getattr(engine, build)(
        NAME, ctx, encode_points(init, term, valued=valued)
    )
    assert list(got.items()) == list(expected.items())
    assert list(engine._fluent_cache[NAME].items()) == list(
        scalar._fluent_cache[NAME].items()
    )
    return {key: list(intervals) for key, intervals in got.items()}


K = ("S00",)


def test_simple_termination_wins_and_the_seed_keeps_its_start():
    assert _both(False, {}, [(K, WS + 5)], [(K, WS + 5)]) == {}
    assert _both(
        False, {K: HELD}, [(K, WS + 2), (K, WS + 2)], [(K, WS + 4)]
    ) == {K: [(WS - 30, WS + 5)]}
    # Quiescent and held: holds on; ended before the seed point: gone.
    gone = ("S01",)
    assert _both(
        False, {K: HELD, gone: IntervalList.single(WS - 30, WS)}, [], []
    ) == {K: [(WS - 30, None)]}


def test_simple_piece_ending_before_its_start_is_dropped():
    seeded = IntervalList.single(WS, None)
    assert _both(False, {K: seeded}, [], [(K, WS - 2)]) == {}


def test_valued_largest_initiated_value_wins():
    out = _both(True, {}, [(K, "free", WS + 1), (K, "congested", WS + 1)], [])
    assert out == {K + ("free",): [(WS + 2, None)]}


def test_valued_termination_of_held_other_and_reinitiated_value():
    cache = {K + ("free",): HELD}
    # The held value's termination ends it...
    assert _both(True, cache, [], [(K, "free", WS + 3)]) == {
        K + ("free",): [(WS - 30, WS + 4)]
    }
    # ...another value's does not...
    assert _both(True, cache, [], [(K, "congested", WS + 3)]) == {
        K + ("free",): [(WS - 30, None)]
    }
    # ...and re-initiating the held value at its termination is no change.
    assert _both(
        True, cache, [(K, "free", WS + 3)], [(K, "free", WS + 3)]
    ) == {K + ("free",): [(WS - 30, None)]}
    # A termination after a change of value kills only the value held.
    assert _both(
        True, cache,
        [(K, "congested", WS + 3)],
        [(K, "free", WS + 5), (K, "congested", WS + 7), (K, "congested", WS + 9)],
    ) == {
        K + ("free",): [(WS - 30, WS + 4)],
        K + ("congested",): [(WS + 4, WS + 8)],
    }


def test_valued_values_that_never_meet_need_not_compare():
    out = _both(True, {}, [(K, "free", WS + 1), (K, 3, WS + 4)], [])
    assert out == {
        K + ("free",): [(WS + 2, WS + 5)],
        K + (3,): [(WS + 5, None)],
    }
    # Where they meet, they are ranked by ``sorted``: 3 > 2.5.
    out = _both(True, {}, [(K, 3, WS + 1), (K, 2.5, WS + 1)], [])
    assert out == {K + (3,): [(WS + 2, None)]}


def test_valued_initiating_none_ends_the_value_held():
    cache = {K + ("free",): HELD}
    assert _both(True, cache, [(K, None, WS + 3)], []) == {
        K + ("free",): [(WS - 30, WS + 4)]
    }
    # ...and holds nothing until a value is initiated.
    assert _both(
        True, cache, [(K, None, WS + 3), (K, "x", WS + 6)], [(K, "x", WS + 5)]
    ) == {K + ("free",): [(WS - 30, WS + 4)], K + ("x",): [(WS + 7, None)]}


def test_valued_first_cached_value_holding_is_the_seed():
    cache = {K + ("x",): HELD, K + ("free",): HELD}
    assert _both(True, cache, [], [(K, "free", WS + 2)]) == {
        K + ("x",): [(WS - 30, None)]
    }


def test_empty_streams_build_nothing():
    empty = np.empty(0, dtype=np.int64)
    assert simple_intervals((empty,) * 2, (empty,) * 2, ([], [])) == {}
    assert valued_intervals((empty,) * 3, (empty,) * 3, ([], [], []), ()) == {}
    assert _both(False, {K: HELD}, [], []) == {K: [(WS - 30, None)]}


def test_two_codes_of_one_grounding_are_refused():
    codes, times = np.array([0, 1], dtype=np.int64), np.array([WS, WS + 1])
    streams = {
        "init": (codes, times),
        "term": (codes[:0], times[:0]),
        "groundings": (K, K).__getitem__,
    }
    ctx = SimpleNamespace(window_start=WS)
    with pytest.raises(ValueError, match="two codes"):
        RTEC([], window=100, step=10)._simple_intervals(NAME, ctx, streams)


# ----------------------------------------------------------------------
# The builders' own output: normal form, and the loops' grouping
# ----------------------------------------------------------------------
def _grouped_by_loop(segments, valued):
    """The builders' grouping as the per-segment loops it was: a
    ``setdefault`` per segment, each group normalised by the
    :class:`IntervalList` constructor.  The reference for the groups,
    their values and their order."""
    spans = {}
    for code, value, start, end in zip(*(column.tolist() for column in segments)):
        end = None if end == _OPEN else end
        if valued:
            spans.setdefault(code, {}).setdefault(value, []).append((start, end))
        elif end is None or end > start:
            spans.setdefault(code, []).append((start, end))
    if valued:
        return {
            code: [(value, IntervalList(ivs)) for value, ivs in by_value.items()]
            for code, by_value in spans.items()
        }
    return {code: IntervalList(ivs) for code, ivs in spans.items()}


@st.composite
def _arrays(draw, valued):
    """Point arrays over a few codes, and seeds for some of the codes
    with points — a seed's start may lie at or after the point that
    ends it (an empty segment)."""
    point = st.tuples(
        st.integers(0, 5),
        st.integers(0, len(VALUES) - 1),
        st.integers(FIRST_WINDOW_START - 2, FIRST_WINDOW_START + 12),
    )
    streams = []
    for _ in ("init", "term"):
        points = draw(st.lists(point, max_size=25))
        columns = np.array(points, dtype=np.int64).reshape(-1, 3).T
        streams.append(tuple(columns) if valued else (columns[0], columns[2]))
    with_points = sorted(set(np.concatenate((streams[0][0], streams[1][0])).tolist()))
    seeded = draw(st.lists(st.sampled_from(with_points), unique=True)) if with_points else []
    seeds = (
        seeded,
        [draw(st.integers(0, len(VALUES) - 1)) for _ in seeded],
        [draw(st.integers(FIRST_WINDOW_START - 30, FIRST_WINDOW_START + 14)) for _ in seeded],
    )
    return streams[0], streams[1], seeds if valued else (seeds[0], seeds[2])


def _segments(init, term, seeds, valued):
    codes, times, is_init = _points(init, term)
    if valued:
        values = np.concatenate((init[1], term[1]))
        return _held_segments(codes, times, is_init, values, seeds, VALUES)
    return _held_segments(
        codes, times, is_init, None,
        (seeds[0], np.zeros(len(seeds[0]), dtype=np.int64), seeds[1]), None,
    )


def _check_builder(init, term, seeds, valued):
    if valued:
        got = valued_intervals(init, term, seeds, VALUES)
    else:
        got = simple_intervals(init, term, seeds)
    codes, _, _ = _points(init, term)
    expected = (
        _grouped_by_loop(_segments(init, term, seeds, valued), valued)
        if len(codes) else {}
    )
    assert list(got.items()) == list(expected.items())
    lists = (
        [intervals for spans in got.values() for _, intervals in spans]
        if valued else list(got.values())
    )
    for intervals in lists:
        assert _normalise(intervals.intervals) == intervals.intervals
        assert all(type(b) is int for iv in intervals for b in iv if b is not None)


@pytest.mark.parametrize("valued", [False, True], ids=["simple", "valued"])
def test_builders_group_as_the_loops_did_in_normal_form(request, valued):
    @_budget(request)
    @given(arrays=_arrays(valued))
    def check(arrays):
        _check_builder(*arrays, valued)

    check()


def test_a_seeded_empty_segment_keeps_its_value_in_place():
    """A seed ended where it starts is no interval, but its value still
    comes first among its grounding's values."""
    start = FIRST_WINDOW_START + 1
    init = tuple(np.array(c, dtype=np.int64) for c in ([0], [1], [start + 4]))
    term = tuple(np.array(c, dtype=np.int64) for c in ([0], [0], [start - 1]))
    got = valued_intervals(init, term, ([0], [0], [start]), VALUES)
    assert got == {0: [(0, IntervalList.empty()), (1, IntervalList.single(start + 5, None))]}
    _check_builder(init, term, ([0], [0], [start]), valued=True)
    got = simple_intervals(
        (init[0], init[2]), (term[0], term[2]), ([0], [start])
    )
    assert got == {0: IntervalList.single(start + 5, None)}
    _check_builder((init[0], init[2]), (term[0], term[2]), ([0], [start]), valued=False)
