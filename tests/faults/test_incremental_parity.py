"""Randomized delayed-arrival parity: array window vs object window.

The working memory exists for the paper's Figure 2 pathology: SDEs
arriving after later query times have already run.  As long as an
SDE's delay stays below ``window - step`` it is still admitted by some
query window that covers its occurrence time, so recognition *settles*
to the same output an on-time delivery would have produced — and the
persistent array window, into which late rows are sorted behind rows
that earlier queries already saw, must hold exactly what the reference
engine rebuilds from its object buffers.

These tests drive both engines over identical randomly-faulted streams
(``repro.faults`` injectors: delays below ``window - step``, plus
duplicates, which both windows must keep) and assert the full
recognition traces are equal, query by query.
"""

import pytest

from repro.core import RTEC
from repro.core.reference import ReferenceRTEC
from repro.faults import FaultInjector, StreamFaults
from tests.golden.record_golden import (
    HORIZON,
    build_engine,
    golden_scenario,
    serialise_snapshot,
)

WINDOW = 1200
STEP = 300

#: Delays stay strictly below window - step: every late SDE is still
#: covered by at least one later query window.
DELAYS = StreamFaults(delay_rate=0.5, max_delay_s=WINDOW - STEP - 1)

#: Delays plus duplicated records (at-least-once delivery).
DELAYS_AND_DUPES = StreamFaults(
    delay_rate=0.4, max_delay_s=WINDOW - STEP - 1, duplicate_rate=0.15
)


def _faulty_stream(seed, spec):
    scenario = golden_scenario()
    data = scenario.generate(0, HORIZON + 600)
    events = FaultInjector(spec, seed=seed, feed="bus").events(data.events)
    facts = FaultInjector(spec, seed=seed, feed="gps").facts(data.facts)
    return scenario, events, facts


def _trace(scenario, events, facts, engine_class):
    engine = build_engine(
        scenario,
        window=WINDOW,
        step=STEP,
        adaptive=True,
        engine_class=engine_class,
    )
    engine.feed(events, facts)
    return [serialise_snapshot(s) for s in engine.run(HORIZON)]


@pytest.mark.parametrize("seed", [11, 23, 47])
@pytest.mark.parametrize(
    "spec", [DELAYS, DELAYS_AND_DUPES], ids=["delays", "delays+dupes"]
)
def test_randomized_delays_settle_identically(seed, spec):
    scenario, events, facts = _faulty_stream(seed, spec)
    array_trace = _trace(scenario, events, facts, RTEC)
    reference_trace = _trace(scenario, events, facts, ReferenceRTEC)
    assert array_trace == reference_trace
