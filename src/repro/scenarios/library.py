"""The built-in scenario library.

Six scenarios over the three topology families, each written as the
plain-mapping document the DSL parses — the library dogfoods
:meth:`ScenarioSpec.from_mapping`, so a schema regression breaks at
import time.  Envelope bands were calibrated by running each scenario
and widening the observed counts by a drift margin (roughly one third
below, three-to-four-fold above); a band failure therefore means the
scenario stopped provoking the behaviour it was designed around, not
that an exact number wobbled.

All scenarios run through the morning rush (the daily demand profile
peaks at ~08:30) — congestion recognition at 3 a.m. has nothing to
recognise.  Scale note: these run at test scale (tens of buses, ~45
simulated minutes) so the full matrix with parity legs finishes in CI
minutes; the knobs all go up — the DSL is the same one the benchmarks
use.
"""

from __future__ import annotations

import difflib

from .spec import ScenarioSpec

__all__ = [
    "SCENARIO_LIBRARY",
    "scenario_names",
    "get_scenario",
]

#: 07:45 — the rising edge of the morning peak.
_RUSH = 27900


_DOCUMENTS: tuple[dict, ...] = (
    {
        "name": "grid_rush",
        "description": (
            "baseline morning rush on the grid city: centre-boosted "
            "demand, no disruptions; every parity leg must agree"
        ),
        "seed": 101,
        "start": _RUSH,
        "duration": 2700,
        "topology": {"family": "grid", "rows": 9, "cols": 12},
        "fleet": {"n_buses": 14, "n_lines": 4},
        "sensors": {"coverage": 0.12},
        "system": {"n_participants": 16},
        "envelope": {
            "occurrences": {"agree": [6, 70], "disagree": [1, 30]},
            "alerts": {"bus congestion": [1, 12]},
            "max_mean_recognition_ms": 400.0,
            "parity": ["reference", "sharded2"],
        },
    },
    {
        "name": "radial_storm",
        "description": (
            "incident storm on the ring-and-spoke city: six severe "
            "incidents on monitored junctions inside the first "
            "25 minutes"
        ),
        "seed": 211,
        "start": _RUSH,
        "duration": 2700,
        "topology": {"family": "radial", "rings": 5, "spokes": 10},
        "fleet": {"n_buses": 14, "n_lines": 4},
        "sensors": {"coverage": 0.2},
        "storm": {
            "n_incidents": 6,
            "window": [0, 1500],
            "severity": [110, 140],
            "length": [1500, 3000],
        },
        "system": {"n_participants": 16},
        "envelope": {
            "occurrences": {"agree": [30, 320], "disagree": [6, 100]},
            "alerts": {
                "bus congestion": [2, 30],
                "scats congestion": [1, 24],
                "crowd resolution": [1, 20],
            },
            "max_mean_recognition_ms": 400.0,
            "crowd_resolutions": [1, 20],
            "parity": ["reference"],
        },
    },
    {
        "name": "multi_centre_stadium",
        "description": (
            "stadium event in the polycentric conurbation: one "
            "monitored venue floods its two-hop neighbourhood "
            "mid-morning"
        ),
        "seed": 307,
        "start": 27000,
        "duration": 2700,
        "topology": {"family": "multi_centre", "centres": 3, "block": 5},
        "fleet": {"n_buses": 14, "n_lines": 4},
        "sensors": {"coverage": 0.18},
        "stadium": {
            "at": 600,
            "duration": 1800,
            "magnitude": 120.0,
            "radius_hops": 2,
        },
        "system": {"n_participants": 16},
        "envelope": {
            "occurrences": {"disagree": [20, 260]},
            "alerts": {
                "bus congestion": [3, 40],
                "source disagreement": [3, 50],
            },
            "max_mean_recognition_ms": 400.0,
            "crowd_resolutions": [2, 25],
            "parity": ["reference"],
        },
    },
    {
        "name": "grid_weather_crawl",
        "description": (
            "city-wide weather slowdown on the grid: densities up 60% "
            "through the rush, sensor- and bus-side congestion both "
            "well above the dry baseline"
        ),
        "seed": 401,
        "start": _RUSH,
        "duration": 2700,
        "topology": {"family": "grid", "rows": 9, "cols": 12},
        "fleet": {"n_buses": 14, "n_lines": 4},
        "sensors": {"coverage": 0.12},
        "weather": {"start": 300, "end": 2700, "density_factor": 1.6},
        "system": {"n_participants": 16},
        "envelope": {
            "occurrences": {"disagree": [10, 170]},
            "alerts": {
                "scats congestion": [1, 20],
                "bus congestion": [1, 15],
            },
            "max_mean_recognition_ms": 400.0,
            "parity": ["reference"],
        },
    },
    {
        "name": "radial_sparse_sensors",
        "description": (
            "coverage sweep low end: very few SCATS intersections and "
            "a sixth of detectors stuck at free-flow, with a small "
            "storm — recognition leans on the bus feed and the crowd "
            "arbitrates"
        ),
        "seed": 503,
        "start": _RUSH,
        "duration": 2700,
        "topology": {"family": "radial", "rings": 5, "spokes": 10},
        "fleet": {"n_buses": 16, "n_lines": 5},
        "sensors": {"coverage": 0.08, "fault_rate": 0.15},
        "storm": {
            "n_incidents": 3,
            "window": [0, 1200],
            "severity": [110, 140],
            "length": [1800, 3000],
        },
        "system": {"n_participants": 16},
        "envelope": {
            "occurrences": {"agree": [3, 50], "disagree": [3, 50]},
            "alerts": {"crowd resolution": [1, 10]},
            "max_mean_recognition_ms": 400.0,
            "crowd_resolutions": [1, 10],
            "parity": ["reference"],
        },
    },
    {
        "name": "grid_blackout_chaos",
        "description": (
            "storm under a total SCATS outage: the feed breaker must "
            "open, the degradation timeline must name the scats feed, "
            "and sensor-side congestion alerts must be suppressed "
            "while bus-side recognition keeps flowing"
        ),
        "seed": 613,
        "start": _RUSH,
        "duration": 2700,
        "topology": {"family": "grid", "rows": 9, "cols": 12},
        "fleet": {"n_buses": 14, "n_lines": 4},
        "sensors": {"coverage": 0.12},
        "storm": {
            "n_incidents": 4,
            "window": [0, 1200],
            "severity": [110, 140],
            "length": [1800, 3000],
        },
        "system": {
            "n_participants": 16,
            "fault_profile": "blackout_scats",
        },
        "envelope": {
            "occurrences": {"disagree": [8, 110]},
            "alerts": {
                "bus congestion": [1, 15],
                # Graceful degradation: with the scats feed down, the
                # sensor-side congestion alerts must be suppressed.
                "scats congestion": [0, 0],
            },
            "max_mean_recognition_ms": 400.0,
            "degraded": [["scats", 600, 2700]],
            "parity": ["reference"],
        },
    },
)

#: The parsed library, in declaration order.
SCENARIO_LIBRARY: tuple[ScenarioSpec, ...] = tuple(
    ScenarioSpec.from_mapping(doc) for doc in _DOCUMENTS
)


def scenario_names() -> list[str]:
    """Names of every library scenario, in declaration order."""
    return [spec.name for spec in SCENARIO_LIBRARY]


def get_scenario(name: str) -> ScenarioSpec:
    """Look a scenario up by name; ``KeyError`` with a closest-match
    hint on a typo."""
    for spec in SCENARIO_LIBRARY:
        if spec.name == name:
            return spec
    close = difflib.get_close_matches(name, scenario_names(), n=1)
    hint = f" (did you mean {close[0]!r}?)" if close else ""
    raise KeyError(
        f"unknown scenario {name!r}{hint}; available: "
        f"{', '.join(scenario_names())}"
    )
