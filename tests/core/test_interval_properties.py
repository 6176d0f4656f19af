"""Property-based tests for the maximal-interval algebra.

Every construct of :mod:`repro.core.intervals` is checked against a
brute-force point-wise oracle on random interval lists: a fluent
"holds" at ``t`` iff some interval covers ``t``, so union is pointwise
OR, intersection pointwise AND, relative complement pointwise
AND-NOT, and ``count_threshold`` a pointwise count.  Open intervals
(``end=None``) are probed both inside the sampled domain and at a far
point, so "holds forever" cannot silently degrade into "holds until
the largest sampled bound".

The suite doubles as the safety net for the sorted fast paths: the
algebra's sweep algorithms hand their output to the trusted
``_from_normalised`` constructor without re-normalising, so every test
also asserts the result is a *normalisation fixpoint* — re-normalising
it changes nothing.  A fast path that ever emitted a denormalised
tuple would fail here long before it corrupted recognition output.
"""

from __future__ import annotations

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

#: Sampled coordinate range; probes extend past it on both sides.
LO, HI = -8, 40
#: Probe points: the whole sampled range plus a far point that only
#: open intervals can reach.
PROBES = tuple(range(LO - 3, HI + 4)) + (10**6,)

ends = st.one_of(st.none(), st.integers(LO, HI))
raw_intervals = st.lists(
    st.tuples(st.integers(LO, HI), ends), max_size=8
)
interval_lists = raw_intervals.map(IntervalList)
lists_of_lists = st.lists(interval_lists, max_size=6)


def oracle_holds(lst: IntervalList, t: int) -> bool:
    """Point-wise membership, computed from the raw tuples."""
    return any(
        start <= t and (end is None or t < end) for start, end in lst
    )


def assert_normal_form(lst: IntervalList) -> None:
    """The list must be sorted, disjoint, non-adjacent, with non-empty
    intervals and any open interval last — and be a fixpoint of the
    normalising constructor (the fast-path safety check)."""
    ivs = lst.intervals
    for i, (start, end) in enumerate(ivs):
        assert end is None or end > start, ivs
        if i:
            prev_end = ivs[i - 1][1]
            assert prev_end is not None, ivs  # open interval not last
            assert start > prev_end, ivs  # overlap or adjacency
    assert IntervalList(ivs).intervals == ivs


@given(raw_intervals)
def test_constructor_normalises(raw):
    lst = IntervalList(raw)
    assert_normal_form(lst)
    for t in PROBES:
        expected = any(
            s <= t and (e is None or t < e) for s, e in raw if e is None or e > s
        )
        assert lst.holds_at(t) == expected


@given(raw_intervals, st.randoms(use_true_random=False))
def test_constructor_is_order_insensitive(raw, rng):
    shuffled = list(raw)
    rng.shuffle(shuffled)
    assert IntervalList(shuffled) == IntervalList(raw)


@given(lists_of_lists)
def test_union_all_is_pointwise_or(lists):
    result = union_all(lists)
    assert_normal_form(result)
    for t in PROBES:
        assert result.holds_at(t) == any(
            oracle_holds(lst, t) for lst in lists
        )


@given(lists_of_lists)
def test_intersect_all_is_pointwise_and(lists):
    result = intersect_all(lists)
    assert_normal_form(result)
    for t in PROBES:
        expected = bool(lists) and all(
            oracle_holds(lst, t) for lst in lists
        )
        assert result.holds_at(t) == expected


@given(interval_lists, interval_lists)
def test_binary_union_and_intersect(a, b):
    union = a.union(b)
    inter = a.intersect(b)
    assert_normal_form(union)
    assert_normal_form(inter)
    for t in PROBES:
        assert union.holds_at(t) == (oracle_holds(a, t) or oracle_holds(b, t))
        assert inter.holds_at(t) == (oracle_holds(a, t) and oracle_holds(b, t))


@given(interval_lists, lists_of_lists)
def test_relative_complement_is_pointwise_and_not(primary, others):
    result = relative_complement_all(primary, others)
    assert_normal_form(result)
    for t in PROBES:
        expected = oracle_holds(primary, t) and not any(
            oracle_holds(lst, t) for lst in others
        )
        assert result.holds_at(t) == expected


@given(lists_of_lists, st.integers(1, 4))
def test_count_threshold_is_pointwise_count(lists, n):
    result = count_threshold(lists, n)
    assert_normal_form(result)
    for t in PROBES:
        covering = sum(1 for lst in lists if oracle_holds(lst, t))
        assert result.holds_at(t) == (covering >= n)


@given(
    interval_lists,
    st.integers(LO - 2, HI + 2),
    st.one_of(st.none(), st.integers(LO - 2, HI + 2)),
)
def test_complement_is_pointwise_not_within_window(lst, w_start, w_end):
    result = lst.complement(w_start, w_end)
    assert_normal_form(result)
    for t in PROBES:
        in_window = w_start <= t and (w_end is None or t < w_end)
        assert result.holds_at(t) == (in_window and not oracle_holds(lst, t))


@settings(max_examples=200)
@given(
    st.lists(st.integers(LO, HI), max_size=8),
    st.lists(st.integers(LO, HI), max_size=8),
    st.booleans(),
)
def test_make_intervals_matches_state_machine(inits, terms, holding):
    window_start = LO - 1
    result = make_intervals(
        inits, terms, holding_at_start=holding, window_start=window_start
    )
    assert_normal_form(result)
    init_set, term_set = set(inits), set(terms)
    # Oracle: march point by point applying inertia; termination wins
    # over a simultaneous initiation and effects start EFFECT_DELAY
    # after the triggering point.
    state = holding
    expected_holds = {}
    for t in range(window_start, HI + 3):
        prev = t - EFFECT_DELAY
        if prev in term_set:
            state = False
        elif prev in init_set:
            state = True
        expected_holds[t] = state
    for t, expected in expected_holds.items():
        assert result.holds_at(t) == expected, (t, result, inits, terms)
    # Past the sampled range the state can never change again.
    assert result.holds_at(10**6) == state
