"""The scalar interval assembly the array functions replaced, kept as
the reference for *order*.

``_simple_intervals`` and ``_valued_intervals`` below are the two
methods of ``repro.core.rtec.RTEC`` from the tree before intervals were
built from arrays, verbatim, on a stand-in that carries only the
inertia cache.  For the values they return, ``make_intervals`` and the
naive evaluator of ``naive.py`` are specifications too; for the
*order* of the returned dict and of the mutated cache — which reaches
the alerts and the crowd (ROADMAP finding F5) — these loops are the
only specification there is.  ``tests/core/test_array_intervals.py``
holds the engine to them, ``list(out.items())`` and
``list(cache.items())`` alike.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from typing import Any, Optional

from repro.core.events import FluentKey
from repro.core.intervals import EFFECT_DELAY, IntervalList

from .inertia import make_intervals


class ScalarIntervals:
    """The parent's interval assembly over an inertia cache of the
    engine's shape, ``{name: {key: IntervalList}}``, which it mutates
    as the engine's did."""

    def __init__(self, fluent_cache: dict[str, dict[FluentKey, IntervalList]]):
        self._fluent_cache = fluent_cache

    def _simple_intervals(
        self,
        name: str,
        ctx,
        init_points: Iterable[tuple[FluentKey, int]],
        term_points: Iterable[tuple[FluentKey, int]],
    ) -> dict[FluentKey, IntervalList]:
        """Build a simple fluent's maximal intervals from its
        initiation/termination points, seeding inertia from the cache.

        The seed is the fluent's value at the *first time-point of the
        new window* (``window_start + EFFECT_DELAY``): events at or
        before the window start are discarded, so the previous
        evaluation — which knew all of them — is the authority on that
        point.  When the fluent was holding, the episode keeps its
        historical start from the cached interval (RTEC's interval
        retention), so an episode longer than the window is not
        re-reported with an artificial start at every slide.
        """
        inits: dict[FluentKey, list[int]] = defaultdict(list)
        terms: dict[FluentKey, list[int]] = defaultdict(list)
        for key, t in init_points:
            inits[key].append(t)
        for key, t in term_points:
            terms[key].append(t)

        seed_point = ctx.window_start + EFFECT_DELAY
        cache = self._fluent_cache.setdefault(name, {})
        keys = set(inits) | set(terms)
        # Keys quiescent in this window persist by inertia if their
        # cached intervals still hold at the seed point.
        for key, cached in cache.items():
            if key not in keys and cached.holds_at(seed_point):
                keys.add(key)

        out: dict[FluentKey, IntervalList] = {}
        for key in keys:
            cached = cache.get(key, IntervalList.empty())
            seed_interval = cached.interval_at(seed_point)
            intervals = make_intervals(
                inits.get(key, ()),
                terms.get(key, ()),
                holding_at_start=seed_interval is not None,
                window_start=(
                    seed_interval[0]
                    if seed_interval is not None
                    else ctx.window_start
                ),
            )
            if intervals:
                cache[key] = intervals
                out[key] = intervals
            else:
                cache.pop(key, None)
        return out

    def _valued_intervals(
        self,
        name: str,
        ctx,
        init_points: Iterable[tuple[FluentKey, Any, int]],
        term_points: Iterable[tuple[FluentKey, Any, int]],
    ) -> dict[FluentKey, IntervalList]:
        """Build a multi-valued fluent's intervals from its points.

        A grounding holds one value at a time: initiating ``F = V``
        implicitly terminates the previously held value.  Results (and
        the cache) are stored under ``grounding + (value,)``.  At one
        time-point, explicit terminations apply before initiations, and
        among several initiated values the largest (sorted order) wins.
        """
        inits: dict[FluentKey, list[tuple[int, Any]]] = defaultdict(list)
        terms: dict[FluentKey, set[tuple[int, Any]]] = defaultdict(set)
        for key, value, t in init_points:
            inits[key].append((t, value))
        for key, value, t in term_points:
            terms[key].add((t, value))

        seed_point = ctx.window_start + EFFECT_DELAY
        cache = self._fluent_cache.setdefault(name, {})
        base_keys = set(inits) | set(terms)
        cached_by_base: dict[FluentKey, list[tuple[FluentKey, IntervalList]]]
        cached_by_base = defaultdict(list)
        for stored_key, cached in cache.items():
            if stored_key:
                cached_by_base[stored_key[:-1]].append((stored_key, cached))
                if cached.holds_at(seed_point):
                    base_keys.add(stored_key[:-1])

        out: dict[FluentKey, IntervalList] = {}
        for key in base_keys:
            # Seed: the value (and historical episode start) held at the
            # first point of the window, from the previous evaluation.
            state: Any = None
            state_start = ctx.window_start
            for stored_key, cached in cached_by_base.get(key, ()):
                seed_interval = cached.interval_at(seed_point)
                if seed_interval is not None:
                    state = stored_key[-1]
                    state_start = seed_interval[0]
                    break

            inits_by_t: dict[int, list[Any]] = defaultdict(list)
            for t, value in inits.get(key, ()):
                inits_by_t[t].append(value)
            key_terms = terms.get(key, set())
            points = sorted(inits_by_t.keys() | {t for t, _ in key_terms})
            spans: dict[Any, list[tuple[int, Optional[int]]]] = defaultdict(
                list
            )
            for t in points:
                terminated = state is not None and (t, state) in key_terms
                initiated = sorted(inits_by_t.get(t, ()))
                new_state = state
                if terminated:
                    new_state = None
                if initiated:
                    # Termination applies first; a simultaneous
                    # initiation then takes over (largest value wins).
                    new_state = initiated[-1]
                if new_state != state:
                    if state is not None:
                        spans[state].append((state_start, t + EFFECT_DELAY))
                    state = new_state
                    state_start = t + EFFECT_DELAY
            if state is not None:
                spans[state].append((state_start, None))

            # Refresh the cache for every previously known value of this
            # grounding, then store the new spans.
            for stored_key, _ in cached_by_base.get(key, ()):
                cache.pop(stored_key, None)
            for value, intervals in spans.items():
                extended = key + (value,)
                interval_list = IntervalList(intervals)
                if interval_list:
                    cache[extended] = interval_list
                    out[extended] = interval_list
        return out
