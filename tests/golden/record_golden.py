"""Golden-trace recording for the recognition engine.

This module is both a library (the differential tests in
``tests/core/test_golden_trace.py`` import the scenario, the engine
builder and the serialiser from here) and a script: running it

    PYTHONPATH=src python tests/golden/record_golden.py

re-records ``tests/golden/traffic_small.json`` from the reference
engine (:class:`repro.core.reference.ReferenceRTEC`, the direct
transcription of the paper's windowing).  The checked-in fixture was
recorded from that engine's ancestor, so it pins the seed behaviour:
any engine change that alters recognition output — intervals,
occurrences or SDE counts — fails the golden tests until the fixture
is deliberately re-recorded and the diff reviewed.  The reference
engine shares its evaluation loop and its inertia seed with the
production engine; the check on *it* is the naive evaluator of
``tests/reference`` (which replays these same (window, step) pairs),
not this fixture.

The scenario is a miniature Dublin run (small grid, few buses, a
couple of incidents) whose bus feed carries the generator's natural
arrival delays (up to 120 s), so queries routinely admit SDEs that
occurred before the previous query time — the exact situation a
window that slides (rows kept, rows evicted, late rows sorted into
place) must survive.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from pathlib import Path
from typing import Any

from repro.core import RTEC
from repro.core.reference import ReferenceRTEC
from repro.core.traffic import (
    build_traffic_definitions,
    default_traffic_params,
)
from repro.dublin import DublinScenario, ScenarioConfig

GOLDEN_PATH = Path(__file__).parent / "traffic_small.json"

#: Last query time of every recorded run (one hour of stream).
HORIZON = 3600

#: The recorded (window, step, adaptive) grid: a no-overlap control,
#: a high-overlap pair (window/step = 4) and a very-high-overlap pair
#: (window/step = 4 with a window larger than the whole stream tail),
#: each under both the static and the self-adaptive rule set.
CONFIGS: tuple[dict[str, Any], ...] = tuple(
    {"window": window, "step": step, "adaptive": adaptive}
    for window, step in ((600, 600), (1200, 300), (2400, 600))
    for adaptive in (False, True)
)


def golden_scenario() -> DublinScenario:
    """The deterministic miniature scenario behind the fixture."""
    return DublinScenario(
        ScenarioConfig(
            seed=3,
            rows=8,
            cols=8,
            n_intersections=24,
            sensors_range=(2, 3),
            n_buses=18,
            n_lines=4,
            unreliable_fraction=0.2,
            n_incidents=8,
            incident_window=(0, HORIZON),
        )
    )


def golden_params() -> dict[str, Any]:
    """Default thresholds, lowered so the miniature scenario actually
    exercises every definition (at default thresholds its readings
    never cross the congestion lines and half the rule suite would be
    recorded as silent)."""
    params = default_traffic_params()
    params.update(
        {
            "scats.density_hi": 28.0,
            "scats.flow_lo": 680.0,
            "trend.flow_delta": 60.0,
            "trend.density_delta": 4.0,
            "regime.synchronized_density": 20.0,
            "bus.delay_delta": 25.0,
        }
    )
    return params


def build_engine(
    scenario: DublinScenario,
    *,
    window: int,
    step: int,
    adaptive: bool,
    engine_class: type[RTEC] = RTEC,
) -> RTEC:
    """An engine of ``engine_class`` over the golden scenario's rule
    suite."""
    definitions = build_traffic_definitions(
        scenario.topology, adaptive=adaptive, noisy_variant="pessimistic"
    )
    return engine_class(
        definitions, window=window, step=step, params=golden_params()
    )


def _plain(value: Any) -> Any:
    """Reduce payload values to JSON-native structures."""
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _key_token(key: Any) -> str:
    """A canonical string form of a grounding key (JSON dict key)."""
    return json.dumps(_plain(list(key)))


def serialise_snapshot(snapshot: Any) -> dict[str, Any]:
    """One query's recognition output as a JSON-able dict.

    Empty interval lists and empty occurrence lists are dropped so the
    comparison is insensitive to bookkeeping differences (an engine
    that records "this fluent was evaluated and holds nowhere" and one
    that omits the entry are behaviourally identical).
    """
    fluents: dict[str, dict[str, list[list[Any]]]] = {}
    for name, by_key in snapshot.fluents.items():
        entries = {
            _key_token(key): [[s, e] for s, e in intervals]
            for key, intervals in by_key.items()
            if intervals
        }
        if entries:
            fluents[name] = dict(sorted(entries.items()))
    occurrences: dict[str, list[dict[str, Any]]] = {}
    for name, occs in snapshot.occurrences.items():
        if occs:
            occurrences[name] = [
                {
                    "key": _plain(list(occ.key)),
                    "time": occ.time,
                    "payload": _plain(occ.payload),
                }
                for occ in occs
            ]
    return {
        "q": snapshot.query_time,
        "n_events": snapshot.n_events,
        "fluents": fluents,
        "occurrences": occurrences,
    }


def run_trace(
    scenario: DublinScenario,
    data: Any,
    *,
    window: int,
    step: int,
    adaptive: bool,
    engine_class: type[RTEC] = RTEC,
) -> list[dict[str, Any]]:
    """Serialised snapshots for every query time up to the horizon."""
    engine = build_engine(
        scenario,
        window=window,
        step=step,
        adaptive=adaptive,
        engine_class=engine_class,
    )
    engine.feed(data.events, data.facts)
    return [serialise_snapshot(s) for s in engine.run(HORIZON)]


def record() -> dict[str, Any]:
    """Re-record the fixture from the reference engine and return
    it."""
    scenario = golden_scenario()
    data = scenario.generate(0, HORIZON + 600)
    document: dict[str, Any] = {
        "scenario": {
            "seed": scenario.config.seed,
            "n_sdes": data.n_sdes,
            "horizon": HORIZON,
        },
        "traces": [],
    }
    for config in CONFIGS:
        document["traces"].append(
            {
                "config": dict(config),
                "queries": run_trace(
                    scenario, data, **config, engine_class=ReferenceRTEC
                ),
            }
        )
    GOLDEN_PATH.write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n"
    )
    return document


if __name__ == "__main__":
    doc = record()
    n_queries = sum(len(t["queries"]) for t in doc["traces"])
    print(
        f"recorded {len(doc['traces'])} traces / {n_queries} queries "
        f"({doc['scenario']['n_sdes']} SDEs) -> {GOLDEN_PATH}"
    )
