"""The simulators' rows as records, for tests that read them one by one."""

from __future__ import annotations

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
