"""The fleet's pass 1 against the per-emission heap loop it replaced.

``BusFleetSimulator._schedule`` takes the emissions a slice at a time
and makes their draws in bulk (``repro.draws``); the heap loop in
``tests/dublin/helpers.py`` pops one bus at a time and makes three
scalar calls.  On drawn fleets — 1 to 40 buses, emission periods with
``lo == hi`` and ``lo == 1``, ``late_fraction`` 0 and 1, the smallest
``max_arrival_delay``, empty and one-second spans, spans shorter than
``lo``, starts off any round number — the two must give the same four
arrays and leave the RNG in the same state, also when the RNG is the
caller's ``rng=`` to :meth:`BusFleetSimulator.columns`.  Tier-1 runs a
fixed derandomised budget; given ``--hypothesis-seed`` (CI's ``chaos``
job draws one) a larger one.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dublin import (
    BusFleetSimulator,
    TrafficGroundTruth,
    generate_street_network,
    make_lines,
)
from tests.dublin.helpers import heap_schedule

START = 27000


@pytest.fixture(scope="module")
def city():
    network = generate_street_network(rows=8, cols=8, seed=2)
    truth = TrafficGroundTruth(network, seed=3, n_random_incidents=2)
    return network, truth, make_lines(network, 3, seed=4)


def _budget(request):
    seeded = request.config.getoption("hypothesis_seed", None) is not None
    return settings(
        max_examples=200 if seeded else 30,
        derandomize=not seeded,
        deadline=None,
    )


@st.composite
def _periods(draw):
    lo = draw(st.integers(1, 30))
    return draw(
        st.sampled_from([(lo, lo), (1, lo), (lo, lo + draw(st.integers(1, 15)))])
    )


@st.composite
def _fleets(draw):
    lo, hi = draw(_periods())
    kwargs = dict(
        n_buses=draw(st.integers(1, 40)),
        emission_period=(lo, hi),
        late_fraction=draw(st.sampled_from([0.0, 1.0, 0.05, 0.5])),
        max_arrival_delay=draw(st.sampled_from([5, 6, 120])),
        seed=draw(st.integers(0, 2**16)),
    )
    start = START + draw(st.integers(0, 59))
    span = draw(st.sampled_from([0, 1, lo - 1, -5, 300, 1200]))
    return kwargs, start, start + span


def test_the_slices_are_the_heap_loop(request, city):
    network, truth, lines = city

    @_budget(request)
    @given(drawn=_fleets(), seed=st.integers(0, 2**32))
    def check(drawn, seed):
        kwargs, start, end = drawn
        fleet = BusFleetSimulator(network, truth, lines, **kwargs)
        bulk, loop = random.Random(seed), random.Random(seed)
        got = fleet._schedule(start, end, bulk)
        expected = heap_schedule(fleet, start, end, loop)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype == np.int64
            assert a.tolist() == b.tolist()
        assert bulk.getstate() == loop.getstate()

    check()


def test_the_callers_rng_is_left_where_the_loop_leaves_it(request, city):
    network, truth, lines = city

    @_budget(request)
    @given(drawn=_fleets(), seed=st.integers(0, 2**32))
    def check(drawn, seed):
        kwargs, start, end = drawn
        fleet = BusFleetSimulator(network, truth, lines, **kwargs)
        bulk, loop = random.Random(seed), random.Random(seed)
        move, __ = fleet.columns(start, end, rng=bulk)
        times, __, __, arrivals = heap_schedule(fleet, start, end, loop)
        assert move.times.tolist() == times.tolist()
        assert move.arrivals.tolist() == arrivals.tolist()
        assert bulk.getstate() == loop.getstate()
        assert bulk.random() == loop.random()

    check()


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"max_arrival_delay": 4}, "max_arrival_delay"),
        ({"max_arrival_delay": 0}, "max_arrival_delay"),
        ({"late_fraction": -0.01}, "late fraction"),
        ({"late_fraction": 1.5}, "late fraction"),
    ],
)
def test_fleet_parameters_fail_closed(city, kwargs, message):
    """A late report arrives ``randint(5, max_arrival_delay)`` seconds
    on: below 5 that range is empty, which used to surface as
    ``randrange``'s error at the first late emission, wherever the
    draws put it."""
    network, truth, lines = city
    with pytest.raises(ValueError, match=message):
        BusFleetSimulator(network, truth, lines, n_buses=3, **kwargs)
