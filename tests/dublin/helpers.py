"""The simulators' rows as records, for tests that read them one by one."""

from __future__ import annotations

import functools
import heapq
import operator

import numpy as np

from repro.dublin import REGIONS


def scats_events(sim, start, end, *, rng=None):
    """The ``traffic`` SDEs of ``[start, end)``: the rows of
    ``sim.columns``, materialised."""
    block = sim.columns(start, end, rng=rng)
    return block.records(np.arange(len(block)))


def bus_events(sim, start, end, *, rng=None):
    """``(move SDE, gps fact)`` pairs in ``[start, end)``: the rows of
    ``sim.columns``, materialised."""
    move, gps = sim.columns(start, end, rng=rng)
    rows = np.arange(len(move))
    return list(zip(move.records(rows), gps.records(rows)))


def unreliable_buses(sim) -> set[str]:
    """Ids of the corrupted buses (evaluation ground truth)."""
    return {b.bus_id for b in sim._buses if b.unreliable_mode != "ok"}


def region_of(network, lon: float, lat: float) -> str:
    """The city region of one point (see ``StreetNetwork.region_codes``)."""
    return REGIONS[int(network.region_codes(lon, lat))]


def heap_schedule(fleet, start, end, rng):
    """The fleet's pass 1 as the per-emission heap loop it was: pop the
    earliest bus (ties: the smaller id string), make its three draws,
    push it back at its next emission.  The reference
    ``BusFleetSimulator._schedule`` is held to."""
    lo, hi = fleet.emission_period
    times, emitters, gaps, arrivals = [], [], [], []
    heap = [
        (start + bus.next_emission % hi, bus.bus_id, i)
        for i, bus in enumerate(fleet._buses)
    ]
    heapq.heapify(heap)
    while heap[0][0] < end:
        t, bus_id, i = heap[0]
        dt = rng.randint(lo, hi)
        if rng.random() < fleet.late_fraction:
            arrival = t + rng.randint(5, fleet.max_arrival_delay)
        else:
            arrival = t + rng.randint(0, 5)
        times.append(t)
        emitters.append(i)
        gaps.append(dt)
        arrivals.append(arrival)
        heapq.heapreplace(heap, (t + dt, bus_id, i))
    return tuple(
        np.array(column, dtype=np.int64)
        for column in (times, emitters, gaps, arrivals)
    )


def loop_weighted_sample(rng, items, weights, k):
    """``repro.dublin.network.weighted_sample`` as the scalar loop it
    was: the total of the weights left summed anew for every draw, the
    pick matched by a running sum.  The reference it is held to.  The
    total is added left to right, as the loop's ``sum`` added floats
    on CPython 3.11 (3.12's compensates)."""
    chosen = []
    available = list(zip(items, weights))
    for _ in range(k):
        total = functools.reduce(operator.add, (w for _, w in available))
        pick = rng.random() * total
        acc = 0.0
        for i, (item, w) in enumerate(available):
            acc += w
            if acc >= pick:
                chosen.append(item)
                available.pop(i)
                break
    return chosen
