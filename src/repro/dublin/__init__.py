"""Synthetic Dublin data substrate.

Substitutes the paper's offline data gates (dublinked.ie bus + SCATS
feeds, OpenStreetMap extract) with deterministic simulators that
preserve the schemas, rates, noise characteristics and failure modes
the system components depend on.  See DESIGN.md §2 for the
substitution rationale.
"""

from .buses import (
    EMISSION_PERIOD_S,
    SCHEDULED_SPEED_KMH,
    BusFleetSimulator,
    BusLine,
    make_lines,
)
from .dataset import (
    event_to_item,
    fact_to_item,
    item_to_event,
    item_to_fact,
    read_jsonl,
    stream_items,
    write_jsonl,
)
from .ground_truth import (
    CONGESTION_DENSITY,
    FREE_FLOW_SPEED_KMH,
    JAM_DENSITY_VEH_KM,
    DensityField,
    Incident,
    Surge,
    TrafficGroundTruth,
    WeatherSlowdown,
    daily_profile,
    greenshields_flow,
    greenshields_speed,
)
from .network import (
    DUBLIN_BBOX,
    REGIONS,
    StreetNetwork,
    generate_street_network,
    place_scats_topology,
)
from .scats import SCATS_PERIOD_S, ScatsSensorSimulator
from .scenario import DublinScenario, ScenarioConfig, ScenarioData

__all__ = [
    "DUBLIN_BBOX",
    "REGIONS",
    "StreetNetwork",
    "generate_street_network",
    "place_scats_topology",
    "TrafficGroundTruth",
    "DensityField",
    "Incident",
    "Surge",
    "WeatherSlowdown",
    "daily_profile",
    "greenshields_speed",
    "greenshields_flow",
    "FREE_FLOW_SPEED_KMH",
    "JAM_DENSITY_VEH_KM",
    "CONGESTION_DENSITY",
    "ScatsSensorSimulator",
    "SCATS_PERIOD_S",
    "BusFleetSimulator",
    "BusLine",
    "make_lines",
    "EMISSION_PERIOD_S",
    "SCHEDULED_SPEED_KMH",
    "DublinScenario",
    "ScenarioConfig",
    "ScenarioData",
    "event_to_item",
    "item_to_event",
    "fact_to_item",
    "item_to_fact",
    "write_jsonl",
    "read_jsonl",
    "stream_items",
]
