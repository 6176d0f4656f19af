"""Stream-identity digests for the generators, injectors and region split.

Library and script, like ``record_golden.py``: running

    PYTHONPATH=src python tests/golden/stream_identity.py

re-records ``tests/golden/stream_digests.json`` from the *current*
tree.  The checked-in file was recorded from the object-per-SDE
generators (the commit before the ingest path went columnar), so it
pins the stream itself: every record, in order, with its arrival stamp
and the exact Python type of every payload value — a NumPy scalar
leaking into a payload changes the digest just as a changed float
does.  ``tests/dublin/test_stream_identity.py`` asserts the digests.

Two cities are recorded, each bare, under every named fault profile
and under one profile built to reach the region split's quirks: the
8x8 / 20-bus miniature and a 300-bus storm-style radial city (incident
storm, stadium surge and a weather window, so every branch of the
ground truth's density is on the path), both over 20 simulated
minutes.  For each stream the digests cover the city-wide stream and
the per-engine rows of ``split_by_region``, ungrouped and packed onto
two engines.  The split reads which bus records exist and where they
are, not when they arrive or what they say, so on the larger city it is
recorded only for the streams that differ in that: the bare one, the
one with duplicates and the one built for the quirks.

Two more miniatures are recorded bare, for the generator branches the
first two never take: ``miniature_inverted`` (a third of the fleet
reports the *opposite* of the truth, a tenth of the sensors stuck) and
``miniature_two_hours`` (the same city over a span in which buses
reach a terminal and turn around).  Their digests were taken from the
per-emission loop of the commit before the fleet became arrays.
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
from pathlib import Path

from repro.core.columns import SDEColumns
from repro.dublin import DublinScenario, ScenarioConfig
from repro.faults import (
    PROFILES,
    FaultProfile,
    StreamFaults,
    inject_scenario,
)
from repro.scenarios import GROUPS2, ScenarioSpec, compile_scenario

DIGESTS_PATH = Path(__file__).parent / "stream_digests.json"

#: Seed offset the pipeline applies to a profile (``profile.seed +
#: SystemConfig.seed``); any fixed value pins the injectors' draws.
PROFILE_SEED = 17

#: None of the named profiles loses bus records, so none reaches the
#: region split's quirks (a ``move`` without its gps goes to central, a
#: gps without its ``move`` goes nowhere, a duplicated ``move`` delivers
#: its gps twice, the last gps of a (bus, time) wins).  This one does.
SPLIT_QUIRKS = FaultProfile(
    name="split_quirks",
    scats=StreamFaults(
        drop_rate=0.1, delay_rate=0.3, max_delay_s=90, duplicate_rate=0.1
    ),
    bus=StreamFaults(
        drop_rate=0.2,
        delay_rate=0.3,
        max_delay_s=200,
        duplicate_rate=0.25,
        corrupt_rate=0.3,
        corrupt_fields=("congestion", "delay", "line"),
    ),
)

STORM_SPEC = {
    "name": "stream_identity_storm",
    "seed": 211,
    "start": 27000,
    "duration": 1200,
    "topology": {"family": "radial", "rings": 14, "spokes": 28},
    "fleet": {"n_buses": 300, "n_lines": 20, "unreliable_fraction": 0.1},
    "sensors": {"coverage": 0.45},
    "storm": {
        "n_incidents": 16,
        "window": [0, 900],
        "severity": [110, 140],
        "length": [600, 1200],
    },
    "stadium": {"at": 300, "duration": 800, "magnitude": 50.0},
    "weather": {"start": 200, "end": 1000, "density_factor": 1.3},
}


def miniature() -> tuple[DublinScenario, int, int]:
    scenario = DublinScenario(
        ScenarioConfig(
            seed=5,
            rows=8,
            cols=8,
            n_intersections=20,
            n_buses=20,
            n_lines=4,
            unreliable_fraction=0.2,
            scats_fault_rate=0.1,
        )
    )
    return scenario, 25200, 26400


def miniature_inverted() -> tuple[DublinScenario, int, int]:
    scenario = DublinScenario(
        ScenarioConfig(
            seed=5,
            rows=8,
            cols=8,
            n_intersections=20,
            n_buses=20,
            n_lines=4,
            unreliable_fraction=0.3,
            unreliable_mode="inverted",
            scats_fault_rate=0.1,
        )
    )
    return scenario, 25200, 26400


def miniature_two_hours() -> tuple[DublinScenario, int, int]:
    scenario, start, __ = miniature_inverted()
    return scenario, start, start + 7200


def storm_city() -> tuple[DublinScenario, int, int]:
    spec = ScenarioSpec.from_mapping(STORM_SPEC)
    return compile_scenario(spec), spec.start, spec.start + spec.duration


CITIES = {
    "miniature": miniature,
    "storm300": storm_city,
    "miniature_inverted": miniature_inverted,
    "miniature_two_hours": miniature_two_hours,
}

#: Cities recorded bare only: they are there for the generators, and
#: the injectors read nothing the first two cities do not show them.
BARE_ONLY = ("miniature_inverted", "miniature_two_hours")

#: Streams whose split is recorded, per city (default: all of them).
SPLIT_STREAMS = {"storm300": ("clean", "duplicating_mediator", "split_quirks")}


def digest_records(events, facts) -> str:
    """SHA-256 of the canonical serialisation of a record stream.

    Every record becomes a tuple of its parts — payload and value
    mappings item by item, in order — and the list of them is pickled
    without a memo, so the bytes depend on the values and their exact
    types and on nothing else: a shared or a copied string reads the
    same, an ``int`` 1, a ``float`` 1.0, a ``True`` and a NumPy scalar
    (which pickles as a reconstructor call) all read differently.
    """
    rows = [
        ("E", ev.type, ev.time, ev.arrival, *ev.payload.items())
        for ev in events
    ]
    for fact in facts:
        value = fact.value
        rows.append((
            "F", fact.name, fact.key, fact.time, fact.arrival,
            *(value.items() if hasattr(value, "items") else (value,)),
        ))
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=4)
    pickler.fast = True  # no memo: identity of equal objects is not data
    pickler.dump(rows)
    return hashlib.sha256(buffer.getbuffer()).hexdigest()


def _engine_batch(part) -> SDEColumns:
    """One engine's share of a split as the batch the pipeline feeds
    (the recorder ran on a tree whose split returned object lists)."""
    if isinstance(part, SDEColumns):
        return part
    events, facts = part
    return SDEColumns.from_sdes(events, facts)


def digest_split(split) -> dict[str, str]:
    """Per-engine digests of a split, in the canonical row order the
    engine assigns sequence numbers in (event blocks, then facts)."""
    out = {}
    for key, part in split.items():
        batch = _engine_batch(part)
        out[key] = digest_records(batch.iter_events(), batch.iter_facts())
    return out


def sorted_profiles() -> list[FaultProfile]:
    return [PROFILES[name] for name in sorted(PROFILES)]


def compute_digests() -> dict:
    """Every digest of the committed file, from the current tree."""
    groups = {
        region: "+".join(group) for group in GROUPS2 for region in group
    }
    out: dict = {}
    for city, build in CITIES.items():
        scenario, start, end = build()
        clean = scenario.generate(start, end)
        streams = {"clean": clean}
        profiles = () if city in BARE_ONLY else (
            *sorted_profiles(), SPLIT_QUIRKS
        )
        for profile in profiles:
            streams[profile.name] = inject_scenario(
                clean, profile.with_seed(profile.seed + PROFILE_SEED)
            )
        out[city] = {}
        for name, data in streams.items():
            entry = out[city][name] = {
                "n": [len(data.events), len(data.facts)],
                "stream": digest_records(data.events, data.facts),
            }
            if name in SPLIT_STREAMS.get(city, streams):
                entry["split"] = digest_split(scenario.split_by_region(data))
                entry["split_groups2"] = digest_split(
                    scenario.split_by_region(data, groups=groups)
                )
    return out


if __name__ == "__main__":
    DIGESTS_PATH.write_text(
        json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n"
    )
    print(f"recorded {DIGESTS_PATH}")
