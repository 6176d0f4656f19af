"""Scenario DSL, generator matrix and acceptance envelopes.

The Dublin substrate (:mod:`repro.dublin`) reproduces one city; this
package turns it into a *family* of cities.  A scenario is a small
declarative document — topology family and size, fleet, sensor
coverage, incident storms, stadium surges, weather windows, system
overrides — compiled by a seeded generator into the same
``DublinScenario`` object the Dublin module produces, so every
scenario runs unchanged through the array-window, compiled-columnar
and sharded pipelines.  Each scenario carries an acceptance envelope
(CE-count tolerance bands, latency bounds, degradation bounds, parity
demands) that ``repro scenarios run`` and the pytest matrix check.

See ``docs/scenarios.md`` for the schema and the envelope semantics.
"""

from .compiler import compile_ground_truth, compile_scenario
from .envelope import (
    PARITY_VARIANTS,
    Clause,
    EnvelopeResult,
    EnvelopeSpec,
    check_envelope,
)
from .library import (
    SCENARIO_LIBRARY,
    get_scenario,
    scenario_names,
)
from .report import render_matrix_html, write_matrix_report
from .runner import (
    GROUPS2,
    MatrixResult,
    ScenarioRun,
    ce_fingerprint,
    run_matrix,
    run_scenario,
)
from .spec import (
    FleetSpec,
    ScenarioSpec,
    SensorSpec,
    StadiumSpec,
    StormSpec,
    TopologySpec,
    WeatherSpec,
)
from .topologies import (
    FAMILIES,
    build_network,
    generate_multi_centre_network,
    generate_radial_network,
)

__all__ = [
    "ScenarioSpec",
    "TopologySpec",
    "FleetSpec",
    "SensorSpec",
    "StormSpec",
    "StadiumSpec",
    "WeatherSpec",
    "EnvelopeSpec",
    "Clause",
    "EnvelopeResult",
    "check_envelope",
    "PARITY_VARIANTS",
    "FAMILIES",
    "build_network",
    "generate_radial_network",
    "generate_multi_centre_network",
    "compile_scenario",
    "compile_ground_truth",
    "SCENARIO_LIBRARY",
    "scenario_names",
    "get_scenario",
    "run_scenario",
    "run_matrix",
    "ScenarioRun",
    "MatrixResult",
    "ce_fingerprint",
    "GROUPS2",
    "render_matrix_html",
    "write_matrix_report",
]
