"""Maximal-interval algebra for the RTEC reproduction.

RTEC (the Event Calculus for Run-Time reasoning) represents the periods
during which a fluent continuously holds as a *list of maximal
intervals* and defines statically-determined fluents through three
interval-manipulation constructs: ``union_all``, ``intersect_all`` and
``relative_complement_all`` (paper, Table 1).  This module implements
those constructs together with the machinery needed by simple fluents:
turning initiation/termination time-points into maximal intervals under
the law of inertia.

Conventions
-----------
* Time is discrete (integers).
* An interval is a half-open pair ``(start, end)`` meaning the fluent
  holds at every time-point ``t`` with ``start <= t < end``.
* ``end`` may be ``None``, meaning the interval is *open*: the fluent
  still holds at the right edge of the evaluation window (RTEC reports
  such intervals as extending to the query time).
* An initiation at time ``t`` makes the fluent hold from ``t + 1``
  onwards; a termination at ``t`` makes it cease from ``t + 1`` onwards.
  This mirrors the Event Calculus convention that effects of an event
  hold strictly after its occurrence.

The engine builds every simple and valued fluent's intervals with
:func:`simple_intervals` / :func:`valued_intervals`: the points of all
groundings at once, as ``(grounding code, time)`` arrays, one
``lexsort`` and a pass over the points where the state changes.
The same law of inertia for one grounding, point by point, is
``make_intervals`` in ``tests/reference/inertia.py``: its statement,
and the reference the array form is tested against.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from heapq import merge as _heap_merge
from typing import Any, Optional

import numpy as np

#: Effects of an initiation/termination apply this many time-points
#: after the triggering event (Event Calculus convention).
EFFECT_DELAY = 1

Interval = tuple[int, Optional[int]]


def _end_sort_key(end: Optional[int]) -> float:
    """Map an interval end to a sortable number (``None`` = +infinity)."""
    return math.inf if end is None else end


class IntervalList:
    """An immutable, normalised list of maximal half-open intervals.

    Normalised means: intervals are non-empty, sorted by start, pairwise
    disjoint, and non-adjacent (touching intervals are merged into one
    maximal interval).  At most one interval may have ``end=None`` and,
    if present, it is the last one.
    """

    __slots__ = ("_ivs",)

    def __init__(self, intervals: Iterable[Interval] = ()):
        self._ivs: tuple[Interval, ...] = _normalise(intervals)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "IntervalList":
        """The empty list of intervals (fluent never holds)."""
        return _EMPTY

    @classmethod
    def single(cls, start: int, end: Optional[int]) -> "IntervalList":
        """A list holding one interval ``[start, end)``."""
        return cls(((start, end),))

    @classmethod
    def _from_normalised(cls, intervals: tuple[Interval, ...]) -> "IntervalList":
        """Wrap a tuple that is *known* to be in normal form.

        The trusted constructor behind the algebra's fast paths: the
        sweep algorithms below emit their output already sorted,
        disjoint and non-adjacent, so re-running :func:`_normalise`
        (a sort plus a merge pass) on it would be pure overhead on the
        engine's hottest path.  Callers must guarantee normal form —
        the property-based tests assert every algebra result is a
        normalisation fixpoint.
        """
        if not intervals:
            return _EMPTY
        out = cls.__new__(cls)
        out._ivs = intervals
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def intervals(self) -> tuple[Interval, ...]:
        """The underlying tuple of ``(start, end)`` pairs."""
        return self._ivs

    def __bool__(self) -> bool:
        return bool(self._ivs)

    def __len__(self) -> int:
        return len(self._ivs)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._ivs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalList):
            return NotImplemented
        return self._ivs == other._ivs

    def __hash__(self) -> int:
        return hash(self._ivs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(
            f"[{s}, {'∞' if e is None else e})" for s, e in self._ivs
        )
        return f"IntervalList({body})"

    def holds_at(self, t: int) -> bool:
        """Return whether the fluent holds at time-point ``t``.

        Implements ``holdsAt(F=V, T)``: true iff ``T`` belongs to one of
        the maximal intervals (paper, Table 1).
        """
        return self.interval_at(t) is not None

    def interval_at(self, t: int) -> Optional[Interval]:
        """The maximal interval containing ``t``, or ``None``.

        Used by the engine to carry an episode's historical start
        across overlapping windows (RTEC's interval retention).
        """
        for start, end in self._ivs:
            if t < start:
                return None
            if end is None or t < end:
                return (start, end)
        return None

    def first_start(self) -> Optional[int]:
        """Start of the earliest interval, or ``None`` if empty."""
        return self._ivs[0][0] if self._ivs else None

    def last_end(self) -> Optional[int]:
        """End of the latest interval (``None`` if open or empty)."""
        return self._ivs[-1][1] if self._ivs else None

    def total_duration(self, horizon: Optional[int] = None) -> int:
        """Total number of time-points covered, up to ``horizon``.

        Open intervals require a ``horizon`` to be measurable; without
        one a :class:`ValueError` is raised when an open interval is
        present.
        """
        total = 0
        for start, end in self._ivs:
            if end is None:
                if horizon is None:
                    raise ValueError(
                        "cannot measure an open interval without a horizon"
                    )
                end = horizon
            if horizon is not None:
                end = min(end, horizon)
            if end > start:
                total += end - start
        return total

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def union(self, other: "IntervalList") -> "IntervalList":
        """Pointwise disjunction of two interval lists."""
        return union_all((self, other))

    def intersect(self, other: "IntervalList") -> "IntervalList":
        """Pointwise conjunction of two interval lists.

        The two-pointer sweep over two normal-form inputs emits its
        output already in normal form: pieces are ordered by start and
        a piece boundary always coincides with a gap in one of the
        inputs, so no two pieces can touch.
        """
        out: list[Interval] = []
        a, b = self._ivs, other._ivs
        i = j = 0
        while i < len(a) and j < len(b):
            start = max(a[i][0], b[j][0])
            end_a = _end_sort_key(a[i][1])
            end_b = _end_sort_key(b[j][1])
            end = min(end_a, end_b)
            if start < end:
                out.append((start, None if end is math.inf else int(end)))
            if end_a <= end_b:
                i += 1
            else:
                j += 1
        return IntervalList._from_normalised(tuple(out))

    def complement(self, window_start: int, window_end: Optional[int]) -> "IntervalList":
        """Intervals within ``[window_start, window_end)`` where the
        fluent does *not* hold."""
        out: list[Interval] = []
        cursor: float = window_start
        limit = _end_sort_key(window_end)
        for start, end in self._ivs:
            if _end_sort_key(end) <= cursor:
                continue
            if start >= limit:
                break
            if start > cursor:
                out.append((int(cursor), min(start, int(limit)) if limit is not math.inf else start))
            cursor = max(cursor, _end_sort_key(end))
            if cursor >= limit:
                break
        if cursor < limit:
            out.append(
                (int(cursor), None if window_end is None else window_end)
            )
        # The gaps of a normal-form list are themselves in normal form:
        # consecutive gaps are separated by a non-empty interval.
        return IntervalList._from_normalised(tuple(out))

    def relative_complement(
        self, others: Sequence["IntervalList"]
    ) -> "IntervalList":
        """``relative_complement_all``: portions of *self* not covered
        by any interval of any list in ``others`` (paper, Table 1).

        Implemented as a direct two-pointer subtraction against the
        union of ``others`` — one pass over each list instead of the
        complement-then-intersect detour.
        """
        if not self._ivs:
            return _EMPTY
        covered = union_all(others)
        c = covered._ivs
        if not c:
            return self
        out: list[Interval] = []
        n = len(c)
        j = 0
        for start, end in self._ivs:
            cursor = start
            open_ended = end is None
            # Skip covering intervals that end at or before this piece.
            while j < n and c[j][1] is not None and c[j][1] <= cursor:
                j += 1
            k = j
            clipped = False
            while k < n:
                c_start, c_end = c[k]
                if not open_ended and c_start >= end:
                    break
                if c_start > cursor:
                    out.append((cursor, c_start))
                if c_end is None:
                    # Covered to infinity: nothing of this (or any
                    # later) piece survives past c_start.
                    return IntervalList._from_normalised(tuple(out))
                if c_end > cursor:
                    cursor = c_end
                if not open_ended and c_end >= end:
                    clipped = True
                    break
                k += 1
            if not clipped and (open_ended or cursor < end):
                out.append((cursor, end))
        return IntervalList._from_normalised(tuple(out))

    def clip(self, window_start: int, window_end: Optional[int]) -> "IntervalList":
        """Restrict the intervals to ``[window_start, window_end)``.

        Used when sliding the working memory: RTEC discards everything
        before ``Q_i - WM``.
        """
        window = IntervalList.single(window_start, window_end)
        return self.intersect(window)

    def close(self, at: int) -> "IntervalList":
        """Replace an open right end with the concrete bound ``at``.

        RTEC reports ongoing fluents as holding up to the query time;
        ``close`` materialises that choice for duration accounting.
        """
        if not self._ivs or self._ivs[-1][1] is not None:
            return self
        ivs = list(self._ivs)
        start, _ = ivs[-1]
        if at <= start:
            ivs.pop()
        else:
            ivs[-1] = (start, at)
        return IntervalList(ivs)


def _is_normalised(intervals: Sequence[Interval]) -> bool:
    """Whether a sequence is already in normal form (sorted, non-empty,
    disjoint, non-adjacent, open interval only at the end)."""
    prev_end = 0
    for i, (start, end) in enumerate(intervals):
        if i:
            if prev_end is None or start <= prev_end:
                return False
        if end is not None and end <= start:
            return False
        prev_end = end
    return True


def _normalise(intervals: Iterable[Interval]) -> tuple[Interval, ...]:
    """Sort, drop empties, and merge overlapping/adjacent intervals."""
    if not isinstance(intervals, tuple):
        intervals = tuple(intervals)
    # Fast path: inputs that are already in normal form (the common
    # case when one IntervalList is rebuilt from another's intervals)
    # skip the sort-and-merge entirely.
    if _is_normalised(intervals):
        return intervals
    cleaned = [
        (s, e)
        for s, e in intervals
        if e is None or e > s
    ]
    if not cleaned:
        return ()
    cleaned.sort(key=lambda iv: (iv[0], _end_sort_key(iv[1])))
    merged: list[Interval] = [cleaned[0]]
    for start, end in cleaned[1:]:
        last_start, last_end = merged[-1]
        if last_end is None:
            break  # an open interval swallows everything after it
        if start <= last_end:
            if end is None or end > last_end:
                merged[-1] = (last_start, end)
        else:
            merged.append((start, end))
    return tuple(merged)


_EMPTY = IntervalList.__new__(IntervalList)
_EMPTY._ivs = ()


# ----------------------------------------------------------------------
# RTEC interval-manipulation constructs (paper, Table 1)
# ----------------------------------------------------------------------
def union_all(lists: Sequence[IntervalList]) -> IntervalList:
    """``union_all(L, I)``: maximal intervals of the union of ``L``.

    Every input is already sorted (IntervalLists are normalised on
    construction), so instead of concatenating and re-sorting, the
    sorted runs are k-way merged and fused in a single pass —
    ``O(n log k)`` for ``n`` total intervals over ``k`` lists.
    """
    runs = [lst._ivs for lst in lists if lst._ivs]
    if not runs:
        return IntervalList.empty()
    if len(runs) == 1:
        return IntervalList._from_normalised(runs[0])
    out: list[Interval] = []
    for start, end in _heap_merge(
        *runs, key=lambda iv: (iv[0], _end_sort_key(iv[1]))
    ):
        if out:
            last_start, last_end = out[-1]
            if last_end is None:
                break  # an open interval swallows everything after it
            if start <= last_end:
                if end is None or end > last_end:
                    out[-1] = (last_start, end)
                continue
        out.append((start, end))
    return IntervalList._from_normalised(tuple(out))


def intersect_all(lists: Sequence[IntervalList]) -> IntervalList:
    """``intersect_all(L, I)``: maximal intervals of the intersection."""
    if not lists:
        return IntervalList.empty()
    result = lists[0]
    for lst in lists[1:]:
        if not result:
            break
        result = result.intersect(lst)
    return result


def relative_complement_all(
    primary: IntervalList, others: Sequence[IntervalList]
) -> IntervalList:
    """``relative_complement_all(I', L, I)`` (paper, Table 1).

    ``I`` is the part of ``I'`` not covered by any list in ``L``.  The
    paper uses this to define ``sourceDisagreement``: bus-reported
    congestion intervals minus SCATS-reported congestion intervals.
    """
    return primary.relative_complement(others)


def count_threshold(lists: Sequence[IntervalList], n: int) -> IntervalList:
    """Intervals during which at least ``n`` of ``lists`` hold.

    Supports the paper's intersection-congestion definition: "a SCATS
    intersection is congested if at least n (n > 1) of its sensors are
    congested" (Section 4.3).  Implemented as a boundary sweep.
    """
    if n <= 0:
        raise ValueError("count threshold must be positive")
    if len(lists) < n:
        return IntervalList.empty()
    deltas: list[tuple[float, int]] = []
    for lst in lists:
        for start, end in lst:
            deltas.append((start, +1))
            deltas.append((_end_sort_key(end), -1))
    deltas.sort(key=lambda d: (d[0], -d[1]))
    out: list[Interval] = []
    active = 0
    open_start: Optional[float] = None
    for point, delta in deltas:
        prev = active
        active += delta
        if prev < n <= active:
            open_start = point
        elif prev >= n > active and open_start is not None:
            if point > open_start:
                out.append(
                    (int(open_start), None if point is math.inf else int(point))
                )
            open_start = None
    if open_start is not None and open_start is not math.inf:
        out.append((int(open_start), None))
    return IntervalList(out)


# ----------------------------------------------------------------------
# Simple-fluent interval construction (law of inertia)
# ----------------------------------------------------------------------
# ----------------------------------------------------------------------
# Every grounding at once: fluent intervals from point arrays
# ----------------------------------------------------------------------
#: State code of "no value held" (value codes are non-negative).
_NONE = -1

#: End of a segment still held at the window's right edge.
_OPEN = int(np.iinfo(np.int64).max)


def _held_segments(codes, times, is_init, values, seeds, table):
    """The segments during which groundings hold a value, from their
    initiation/termination points — ``(code, value, start, end)``
    arrays, grounding by grounding in code order, each grounding's in
    time order; ``end`` is ``_OPEN`` for a segment still held after
    the last point.

    ``codes`` / ``times`` / ``is_init`` describe every point, ``values``
    its value code (``None`` for a simple fluent), ``seeds`` the state
    held before the first point: ``(codes, value codes, starts)`` of
    the seeded groundings — each of which must have points — and
    ``table`` the values the value codes index.

    One ``lexsort`` orders the points by ``(code, time)``; the flags
    of equal points are OR-ed together with ``reduceat``.  The state
    after a point is then, for a simple fluent, "held unless
    terminated there" (termination wins); for a valued fluent, the
    largest value initiated there — or, at a point without initiation,
    the value of the segment the point lies in (begun by the last
    initiation, or by the seed) unless a termination of that value at
    this or an earlier point of the segment killed it.  Segments begin
    at the seeds and where the state changes into a value, and end
    where it changes out of one.
    """
    order = np.lexsort((times, codes))
    codes, times, is_init = codes[order], times[order], is_init[order]
    fresh = np.ones(len(codes), dtype=bool)
    fresh[1:] = (codes[1:] != codes[:-1]) | (times[1:] != times[:-1])
    first = np.flatnonzero(fresh)
    p_code, p_time = codes[first], times[first]
    n = len(first)
    leads = np.ones(n, dtype=bool)
    leads[1:] = p_code[1:] != p_code[:-1]
    heads = np.flatnonzero(leads)
    lasts = np.append(heads[1:], n) - 1
    group = np.cumsum(leads) - 1
    seed_codes, seed_values, seed_starts = (
        np.asarray(column, dtype=np.int64) for column in seeds
    )
    g_state = np.full(len(heads), _NONE, dtype=np.int64)
    g_start = np.zeros(len(heads), dtype=np.int64)
    at = np.searchsorted(p_code[heads], seed_codes)
    g_state[at] = seed_values
    g_start[at] = seed_starts

    if values is None:
        has_term = np.logical_or.reduceat(~is_init, first)
        after = np.where(has_term, _NONE, 0)
    else:
        values = values[order]
        init_values = np.where(is_init, values, _NONE)
        top = np.maximum.reduceat(init_values, first)
        low = np.minimum.reduceat(np.where(is_init, values, _OPEN), first)
        has_init = top != _NONE
        # Where several values are initiated at one point, the largest
        # in ``sorted`` order of the values themselves wins — ranked in
        # Python, among the values that meet there only: values that
        # never meet need not be comparable.
        bounds = np.append(first, len(codes)).tolist()
        for p in np.flatnonzero(has_init & (low != top)).tolist():
            meeting = init_values[bounds[p]:bounds[p + 1]]
            top[p] = sorted(
                meeting[meeting != _NONE].tolist(), key=table.__getitem__
            )[-1]
        # Initiating ``None`` ends the value held, as a termination.
        nones = [code for code, value in enumerate(table) if value is None]
        initiated = np.where(np.isin(top, nones), _NONE, top)
        begins = has_init | leads
        seg = np.cumsum(begins) - 1
        seg_value = np.where(has_init, initiated, g_state[group])[begins]
        point = np.cumsum(fresh) - 1
        kills = (
            ~is_init
            & ~has_init[point]
            & (values == seg_value[seg[point]])
        )
        killed_segs, at = np.unique(seg[point[kills]], return_index=True)
        kill_at = np.full(len(seg_value), n)
        kill_at[killed_segs] = point[kills][at]
        held = np.where(np.arange(n) < kill_at[seg], seg_value[seg], _NONE)
        after = np.where(has_init, initiated, held)

    before = np.empty_like(after)
    before[1:] = after[:-1]
    before[heads] = g_state
    changed = np.flatnonzero(before != after)
    seeded = g_state != _NONE
    into = changed[after[changed] != _NONE]
    out_of = changed[before[changed] != _NONE]
    still = lasts[after[lasts] != _NONE]
    # A grounding's segments begin and end alternately, so the k-th
    # beginning (in point order; a seed before its grounding's first
    # point) pairs with the k-th end (one still held: after the last).
    begin = np.argsort(np.concatenate((2 * heads[seeded] - 1, 2 * into)))
    end = np.argsort(np.concatenate((2 * out_of, 2 * still + 1)))
    return (
        np.concatenate((p_code[heads[seeded]], p_code[into]))[begin],
        np.concatenate((g_state[seeded], after[into]))[begin],
        np.concatenate((g_start[seeded], p_time[into] + EFFECT_DELAY))[begin],
        np.concatenate((
            p_time[out_of] + EFFECT_DELAY, np.full(len(still), _OPEN)
        ))[end],
    )


def _points(init, term):
    """The two streams' points as one set of arrays."""
    codes = np.concatenate((init[0], term[0])).astype(np.int64, copy=False)
    times = np.concatenate((init[-1], term[-1])).astype(np.int64, copy=False)
    is_init = np.arange(len(codes)) < len(init[0])
    return codes, times, is_init


def simple_intervals(init, term, seeds) -> dict[int, IntervalList]:
    """The maximal intervals of a simple fluent's groundings, by
    grounding code, from its points as arrays.

    ``init`` / ``term`` are ``(codes, times)`` arrays: the grounding
    code and time-point of every ``initiatedAt`` / ``terminatedAt``
    point, duplicates allowed.  ``seeds`` is ``(codes, starts)`` for
    the groundings (among those with points) that held at the window's
    first time-point, and since when.  Per grounding this is the law of
    inertia (``make_intervals`` in ``tests/reference/inertia.py``)
    with ``holding_at_start`` and ``window_start`` from its seed: termination wins at a shared
    point, an episode keeps its seeded start, and a piece ending at or
    before its start is dropped.  Groundings that hold nowhere are
    absent; every bound is a Python ``int``.
    """
    codes, times, is_init = _points(init, term)
    if not len(codes):
        return {}
    seed_codes, seed_starts = seeds
    found = _held_segments(
        codes, times, is_init, None,
        (seed_codes, np.zeros(len(seed_codes), dtype=np.int64), seed_starts),
        None,
    )
    out: dict[int, list[Interval]] = {}
    for code, _, start, end in zip(*(column.tolist() for column in found)):
        if end == _OPEN:
            out.setdefault(code, []).append((start, None))
        elif end > start:
            out.setdefault(code, []).append((start, end))
    return {
        code: IntervalList._from_normalised(tuple(ivs))
        for code, ivs in out.items()
    }


def valued_intervals(
    init, term, seeds, values: Sequence[Any]
) -> dict[int, list[tuple[int, IntervalList]]]:
    """The intervals of a multi-valued fluent's groundings, by
    grounding code: per grounding, ``(value code, intervals)`` in the
    order each value's first segment starts.

    ``init`` / ``term`` are ``(codes, value codes, times)`` arrays,
    ``values`` the value table the value codes index and ``seeds``
    ``(codes, value codes, starts)`` for the groundings (among those
    with points) that held a value at the window's first time-point.
    A grounding holds one value at a time.  At one time-point the held
    value's termination applies first, then the largest initiated
    value — "largest" in ``sorted`` order of the values initiated
    there, ranked in Python — takes over (initiating ``None`` holds
    nothing); re-initiating the held value at its own termination is
    no change.  Each value's spans are normalised by
    :class:`IntervalList`; every bound is a Python ``int``.
    """
    codes, times, is_init = _points(init, term)
    if not len(codes):
        return {}
    found = _held_segments(
        codes, times, is_init,
        np.concatenate((init[1], term[1])).astype(np.int64, copy=False),
        seeds, values,
    )
    spans: dict[int, dict[int, list[Interval]]] = {}
    for code, value, start, end in zip(*(column.tolist() for column in found)):
        spans.setdefault(code, {}).setdefault(value, []).append(
            (start, None if end == _OPEN else end)
        )
    return {
        code: [(value, IntervalList(ivs)) for value, ivs in by_value.items()]
        for code, by_value in spans.items()
    }


def encode_points(
    init_points: Sequence, term_points: Sequence, *, valued: bool
) -> dict[str, Any]:
    """An interpreted fluent body's points — lists of ``(grounding,
    T)``, or ``(grounding, value, T)`` for a valued fluent — as the
    arrays a compiled body returns
    (:meth:`repro.core.compiled.CompiledRule.derive`): groundings and
    values numbered in the order they first appear, initiations before
    terminations."""
    groundings: dict = {}
    value_codes: dict = {}
    streams: dict[str, Any] = {}
    for stream, points in (("init", init_points), ("term", term_points)):
        codes = [groundings.setdefault(p[0], len(groundings)) for p in points]
        arrays = [np.array(codes, dtype=np.int64)]
        if valued:
            arrays.append(np.array(
                [value_codes.setdefault(p[1], len(value_codes)) for p in points],
                dtype=np.int64,
            ))
        arrays.append(np.array([p[-1] for p in points], dtype=np.int64))
        streams[stream] = tuple(arrays)
    streams["groundings"] = list(groundings).__getitem__
    if valued:
        streams["values"] = list(value_codes)
    return streams
