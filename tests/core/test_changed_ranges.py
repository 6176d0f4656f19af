"""The ``changed`` ranges a derived event publishes, against the diff
they replaced.

The engine diffs what a query *replaced* — the cached occurrences it
dropped and the ones it derived in their place.  The reference, kept
here, is the diff it used to run: the whole previous window against
the whole new one as multisets of frozen occurrences.  Both must name
the same time ranges at every query, for late arrivals, duplicates and
upstream changes alike (the parity suite's batches carry all three).
"""

from collections import Counter

import pytest
from hypothesis import given, settings

from repro.core import RTEC
from repro.core.incremental import (
    changed_point_ranges,
    freeze,
    merge_ranges,
)
from repro.core.events import Occurrence
from repro.core.traffic import build_traffic_definitions, default_traffic_params

from .helpers import make_topology
from .test_compiled_parity import HORIZON, SPACING, STEP, WINDOW, sde_batches


def _whole_window_diff(old, new, window_start, previous):
    """Where the multisets ``old`` (the previous query's occurrences)
    and ``new`` differ inside the overlap ``(window_start, previous]``."""
    counts = Counter()
    for sign, occurrences in ((1, old), (-1, new)):
        for o in occurrences:
            if window_start < o.time <= previous:
                counts[o.key, o.time, freeze(o.payload)] += sign
    return merge_ranges(
        ((t, t) for (_, t, _), n in counts.items() if n),
        window_start + 1,
        previous,
    )


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "interp"])
@settings(max_examples=25, deadline=None)
@given(batch=sde_batches())
def test_published_ranges_equal_the_whole_window_diff(compiled, batch):
    events, facts = batch
    # disagree/agree feed noisy and delayIncrease feeds
    # congestionInTheMake: all three publish.
    engine = RTEC(
        build_traffic_definitions(
            make_topology(n_intersections=3, spacing=SPACING),
            adaptive=True,
            noisy_variant="pessimistic",
        ),
        window=WINDOW,
        step=STEP,
        params={**default_traffic_params(), "bus.delay_delta": 25.0},
        compiled=compiled,
    )
    engine.feed(events, facts)
    previous = None
    for snapshot in engine.run(HORIZON):
        for name in ("disagree", "agree", "delayIncrease"):
            published = engine._states[name].changed
            if previous is None:
                assert published == []
                continue
            assert published == _whole_window_diff(
                previous.occurrences[name],
                snapshot.occurrences[name],
                snapshot.window_start,
                previous.query_time,
            ), name
        previous = snapshot


def _occ(t, bus="B1", **payload):
    return Occurrence("agree", (bus,), t, {"bus": bus, **payload})


def test_diff_is_a_multiset_diff_per_time_point():
    a, b, c = _occ(5, intersection="I1"), _occ(5, intersection="I2"), _occ(9)
    # Equal sides, in any order, differ nowhere...
    assert changed_point_ranges([a, b, c], [a, b, c], 0, 20) == []
    assert changed_point_ranges(
        [a, b], [_occ(5, intersection="I2"), _occ(5, intersection="I1")], 0, 20
    ) == []
    # ...a lost duplicate, a changed payload and a new point do, and
    # adjacent time-points merge.
    assert changed_point_ranges([a, a], [a], 0, 20) == [(5, 5)]
    assert changed_point_ranges(
        [a, c], [_occ(5, intersection="I3"), c, _occ(6)], 0, 20
    ) == [(5, 6)]
    assert changed_point_ranges([a, c], [a], 0, 8) == []
