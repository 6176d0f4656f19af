"""Unit and property-based tests for the maximal-interval algebra."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import (
    EFFECT_DELAY,
    IntervalList,
    count_threshold,
    intersect_all,
    relative_complement_all,
    union_all,
)

from ..reference.inertia import make_intervals

# ----------------------------------------------------------------------
# Construction / normalisation
# ----------------------------------------------------------------------
class TestNormalisation:
    def test_empty(self):
        assert not IntervalList()
        assert len(IntervalList()) == 0
        assert IntervalList.empty() == IntervalList()

    def test_drops_empty_intervals(self):
        assert IntervalList([(5, 5), (7, 6)]) == IntervalList()

    def test_sorts(self):
        il = IntervalList([(10, 12), (0, 2)])
        assert il.intervals == ((0, 2), (10, 12))

    def test_merges_overlapping(self):
        il = IntervalList([(0, 5), (3, 8)])
        assert il.intervals == ((0, 8),)

    def test_merges_adjacent(self):
        il = IntervalList([(0, 5), (5, 8)])
        assert il.intervals == ((0, 8),)

    def test_keeps_disjoint(self):
        il = IntervalList([(0, 5), (6, 8)])
        assert il.intervals == ((0, 5), (6, 8))

    def test_open_interval_swallows_later(self):
        il = IntervalList([(0, None), (5, 9)])
        assert il.intervals == ((0, None),)

    def test_open_interval_merges_with_overlap(self):
        il = IntervalList([(0, 4), (2, None)])
        assert il.intervals == ((0, None),)

    def test_single(self):
        assert IntervalList.single(3, 9).intervals == ((3, 9),)

    def test_equality_and_hash(self):
        a = IntervalList([(0, 5), (3, 8)])
        b = IntervalList([(0, 8)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != IntervalList([(0, 9)])


class TestHoldsAt:
    def test_inside(self):
        il = IntervalList([(3, 7)])
        assert il.holds_at(3)
        assert il.holds_at(6)

    def test_half_open(self):
        il = IntervalList([(3, 7)])
        assert not il.holds_at(7)
        assert not il.holds_at(2)

    def test_open_end(self):
        il = IntervalList([(3, None)])
        assert il.holds_at(10_000_000)
        assert not il.holds_at(2)

    def test_between_intervals(self):
        il = IntervalList([(0, 2), (5, 7)])
        assert not il.holds_at(3)


class TestAccessors:
    def test_first_last(self):
        il = IntervalList([(2, 4), (8, None)])
        assert il.first_start() == 2
        assert il.last_end() is None
        assert IntervalList().first_start() is None

    def test_total_duration(self):
        il = IntervalList([(0, 4), (10, 13)])
        assert il.total_duration() == 7

    def test_total_duration_open_requires_horizon(self):
        il = IntervalList([(0, None)])
        with pytest.raises(ValueError):
            il.total_duration()
        assert il.total_duration(horizon=5) == 5

    def test_total_duration_clamps_to_horizon(self):
        il = IntervalList([(0, 10)])
        assert il.total_duration(horizon=4) == 4

    def test_close_materialises_open_end(self):
        il = IntervalList([(3, None)])
        assert il.close(9).intervals == ((3, 9),)

    def test_close_drops_empty_result(self):
        il = IntervalList([(5, None)])
        assert il.close(5) == IntervalList()

    def test_close_noop_when_closed(self):
        il = IntervalList([(3, 7)])
        assert il.close(9) is il

    def test_clip(self):
        il = IntervalList([(0, 10), (20, None)])
        assert il.clip(5, 25).intervals == ((5, 10), (20, 25))


# ----------------------------------------------------------------------
# Algebra
# ----------------------------------------------------------------------
class TestAlgebra:
    def test_union(self):
        a = IntervalList([(0, 5)])
        b = IntervalList([(3, 9)])
        assert a.union(b).intervals == ((0, 9),)

    def test_intersect(self):
        a = IntervalList([(0, 5), (8, 12)])
        b = IntervalList([(3, 10)])
        assert a.intersect(b).intervals == ((3, 5), (8, 10))

    def test_intersect_with_open(self):
        a = IntervalList([(0, None)])
        b = IntervalList([(3, 10), (20, None)])
        assert a.intersect(b).intervals == ((3, 10), (20, None))

    def test_complement_finite_window(self):
        il = IntervalList([(3, 5)])
        assert il.complement(0, 10).intervals == ((0, 3), (5, 10))

    def test_complement_empty_source(self):
        assert IntervalList().complement(2, 6).intervals == ((2, 6),)

    def test_complement_open_window(self):
        il = IntervalList([(3, 5)])
        assert il.complement(0, None).intervals == ((0, 3), (5, None))

    def test_complement_of_open_interval(self):
        il = IntervalList([(3, None)])
        assert il.complement(0, 10).intervals == ((0, 3),)

    def test_union_all(self):
        lists = [IntervalList([(0, 2)]), IntervalList([(1, 5)]), IntervalList()]
        assert union_all(lists).intervals == ((0, 5),)
        assert union_all([]) == IntervalList()

    def test_intersect_all(self):
        lists = [
            IntervalList([(0, 10)]),
            IntervalList([(2, 12)]),
            IntervalList([(4, 6), (8, 20)]),
        ]
        assert intersect_all(lists).intervals == ((4, 6), (8, 10))
        assert intersect_all([]) == IntervalList()

    def test_relative_complement_all_paper_semantics(self):
        # sourceDisagreement: bus intervals minus SCATS intervals.
        bus = IntervalList([(0, 100)])
        scats = IntervalList([(30, 60)])
        result = relative_complement_all(bus, [scats])
        assert result.intervals == ((0, 30), (60, 100))

    def test_relative_complement_of_nothing(self):
        assert relative_complement_all(IntervalList(), [IntervalList([(0, 5)])]) == IntervalList()

    def test_relative_complement_with_no_cover(self):
        a = IntervalList([(0, 5)])
        assert relative_complement_all(a, [IntervalList()]) == a

    def test_relative_complement_multiple_lists(self):
        a = IntervalList([(0, 20)])
        covers = [IntervalList([(2, 4)]), IntervalList([(10, 15)])]
        assert relative_complement_all(a, covers).intervals == (
            (0, 2),
            (4, 10),
            (15, 20),
        )


class TestCountThreshold:
    def test_basic(self):
        lists = [
            IntervalList([(0, 10)]),
            IntervalList([(5, 15)]),
            IntervalList([(8, 20)]),
        ]
        assert count_threshold(lists, 2).intervals == ((5, 15),)
        assert count_threshold(lists, 3).intervals == ((8, 10),)

    def test_fewer_lists_than_threshold(self):
        assert count_threshold([IntervalList([(0, 5)])], 2) == IntervalList()

    def test_threshold_one_is_union(self):
        lists = [IntervalList([(0, 3)]), IntervalList([(5, 8)])]
        assert count_threshold(lists, 1) == union_all(lists)

    def test_open_intervals(self):
        lists = [IntervalList([(0, None)]), IntervalList([(5, None)])]
        assert count_threshold(lists, 2).intervals == ((5, None),)

    def test_count_recovers_after_gap(self):
        lists = [
            IntervalList([(0, 4), (10, 14)]),
            IntervalList([(0, 14)]),
        ]
        assert count_threshold(lists, 2).intervals == ((0, 4), (10, 14))

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            count_threshold([], 0)


class TestMakeIntervals:
    def test_init_then_term(self):
        il = make_intervals([3], [7])
        assert il.intervals == ((3 + EFFECT_DELAY, 7 + EFFECT_DELAY),)

    def test_unterminated_is_open(self):
        il = make_intervals([3], [])
        assert il.intervals == ((4, None),)

    def test_holding_at_start(self):
        il = make_intervals([], [5], holding_at_start=True, window_start=2)
        assert il.intervals == ((2, 6),)

    def test_holding_at_start_no_term(self):
        il = make_intervals([], [], holding_at_start=True, window_start=2)
        assert il.intervals == ((2, None),)

    def test_termination_wins_tie(self):
        il = make_intervals([5], [5])
        assert il == IntervalList()

    def test_termination_wins_tie_while_holding(self):
        il = make_intervals([5], [5], holding_at_start=True, window_start=0)
        assert il.intervals == ((0, 6),)

    def test_repeated_initiations_do_not_restart(self):
        il = make_intervals([1, 3, 5], [8])
        assert il.intervals == ((2, 9),)

    def test_repeated_terminations_ignored_when_not_holding(self):
        il = make_intervals([], [2, 4, 6])
        assert il == IntervalList()

    def test_alternating(self):
        il = make_intervals([1, 10], [5, 15])
        assert il.intervals == ((2, 6), (11, 16),)


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
finite_interval = st.tuples(
    st.integers(-100, 100), st.integers(-100, 100)
).map(lambda p: (min(p), max(p) + 1))

interval_lists = st.lists(finite_interval, max_size=8).map(IntervalList)


def _covered_points(il: IntervalList, lo: int = -120, hi: int = 120) -> set:
    return {t for t in range(lo, hi) if il.holds_at(t)}


@given(interval_lists)
def test_normalisation_invariants(il):
    ivs = il.intervals
    for s, e in ivs:
        assert e is None or e > s
    for (s1, e1), (s2, _) in zip(ivs, ivs[1:]):
        assert e1 is not None
        assert e1 < s2  # disjoint and non-adjacent


@given(interval_lists, interval_lists)
def test_union_is_pointwise_or(a, b):
    assert _covered_points(a.union(b)) == _covered_points(a) | _covered_points(b)


@given(interval_lists, interval_lists)
def test_intersect_is_pointwise_and(a, b):
    assert _covered_points(a.intersect(b)) == (
        _covered_points(a) & _covered_points(b)
    )


@given(interval_lists, interval_lists)
def test_union_commutes(a, b):
    assert a.union(b) == b.union(a)


@given(interval_lists, interval_lists)
def test_intersect_commutes(a, b):
    assert a.intersect(b) == b.intersect(a)


@given(interval_lists)
def test_union_idempotent(a):
    assert a.union(a) == a


@given(interval_lists)
def test_intersect_idempotent(a):
    assert a.intersect(a) == a


@given(interval_lists, st.lists(interval_lists, max_size=4))
def test_relative_complement_is_pointwise_difference(a, others):
    expected = _covered_points(a)
    for o in others:
        expected -= _covered_points(o)
    assert _covered_points(relative_complement_all(a, others)) == expected


@given(interval_lists)
def test_complement_partitions_window(a):
    comp = a.complement(-120, 120)
    pts_a = _covered_points(a)
    pts_c = _covered_points(comp)
    assert pts_a & pts_c == set()
    assert pts_a | pts_c == set(range(-120, 120))


@given(st.lists(interval_lists, min_size=1, max_size=5), st.integers(1, 5))
@settings(max_examples=60)
def test_count_threshold_pointwise(lists, n):
    result = count_threshold(lists, n)
    for t in range(-120, 120):
        active = sum(1 for lst in lists if lst.holds_at(t))
        assert result.holds_at(t) == (active >= n)


@given(
    st.lists(st.integers(0, 60), max_size=10),
    st.lists(st.integers(0, 60), max_size=10),
    st.booleans(),
)
def test_make_intervals_matches_inertia_simulation(inits, terms, holding):
    il = make_intervals(inits, terms, holding_at_start=holding, window_start=0)
    init_set, term_set = set(inits), set(terms)
    state = holding
    for t in range(0, 70):
        # Simulate inertia point by point (termination wins ties).
        if t - EFFECT_DELAY >= 0:
            cause = t - EFFECT_DELAY
            if cause in term_set:
                state = False
            elif cause in init_set:
                state = True
        assert il.holds_at(t) == state, f"mismatch at t={t}"


class TestIntervalAt:
    def test_returns_containing_interval(self):
        il = IntervalList([(3, 7), (10, None)])
        assert il.interval_at(5) == (3, 7)
        assert il.interval_at(3) == (3, 7)
        assert il.interval_at(7) is None
        assert il.interval_at(12) == (10, None)
        assert il.interval_at(0) is None

    def test_empty(self):
        assert IntervalList().interval_at(0) is None


@given(interval_lists, st.integers(-100, 100), st.integers(-100, 100))
def test_clip_is_pointwise_window_intersection(il, a, b):
    lo, hi = min(a, b), max(a, b) + 1
    clipped = il.clip(lo, hi)
    for t in range(-120, 120):
        expected = il.holds_at(t) and lo <= t < hi
        assert clipped.holds_at(t) == expected


@given(interval_lists, st.integers(-100, 120))
def test_close_materialises_open_end_pointwise(il, at):
    closed = il.close(at)
    for t in range(-120, 140):
        if il.last_end() is None and t >= at:
            # Points at/after the close bound in the open tail drop out.
            if il.intervals and t >= il.intervals[-1][0]:
                assert not closed.holds_at(t)
        elif il.holds_at(t) and (il.last_end() is not None or t < at):
            assert closed.holds_at(t)


@given(interval_lists)
def test_interval_at_consistent_with_holds_at(il):
    for t in range(-120, 120):
        containing = il.interval_at(t)
        assert (containing is not None) == il.holds_at(t)
        if containing is not None:
            start, end = containing
            assert start <= t
            assert end is None or t < end
