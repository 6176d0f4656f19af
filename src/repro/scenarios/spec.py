"""The declarative scenario DSL.

A scenario is a plain nested mapping — TOML/JSON-shaped, checked into
the library or written by hand — describing one synthetic city day:

.. code-block:: python

    {
        "name": "radial_storm",
        "seed": 11,
        "duration": 2700,
        "topology": {"family": "radial", "rings": 6, "spokes": 12},
        "fleet": {"n_buses": 18, "n_lines": 5},
        "sensors": {"coverage": 0.4, "sensors_range": [2, 4]},
        "storm": {"n_incidents": 6, "severity": [60, 90]},
        "system": {"window": 600, "step": 300},
        "envelope": {...},   # see repro.scenarios.envelope
    }

:meth:`ScenarioSpec.from_mapping` validates the whole document with
the same discipline as :meth:`repro.system.SystemConfig.from_mapping`
— unknown keys are rejected with a closest-match hint, value ranges
are checked at construction — and :meth:`ScenarioSpec.to_mapping`
round-trips the spec back to a JSON-native mapping (the Hypothesis
round-trip property in ``tests/scenarios`` pins serialise → parse →
generate determinism).
"""

from __future__ import annotations

import difflib
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from typing import Any, Optional

from .topologies import FAMILIES

__all__ = [
    "TopologySpec",
    "FleetSpec",
    "SensorSpec",
    "StormSpec",
    "StadiumSpec",
    "WeatherSpec",
    "ScenarioSpec",
    "reject_unknown_keys",
]


def reject_unknown_keys(
    mapping: Mapping[str, Any], known, context: str
) -> None:
    """Fail on unknown keys with a closest-match hint (shared idiom of
    every ``from_mapping`` in the repo)."""
    known = list(known)
    unknown = sorted(set(mapping) - set(known))
    if unknown:
        hints = []
        for key in unknown:
            close = difflib.get_close_matches(key, known, n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            hints.append(f"{key!r}{hint}")
        raise ValueError(
            f"unknown {context} key(s): {', '.join(hints)}; "
            f"valid keys: {', '.join(sorted(known))}"
        )


def _section(cls, mapping: Mapping[str, Any], context: str):
    """Build a section dataclass from a mapping, coercing lists to
    tuples (JSON has no tuples) and rejecting unknown keys."""
    if not isinstance(mapping, Mapping):
        raise ValueError(f"{context} section must be a mapping")
    known = {f.name for f in fields(cls)}
    reject_unknown_keys(mapping, known, context)
    kwargs = {}
    for key, value in mapping.items():
        if isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


def _pair(name: str, value, *, lo_ok=None) -> tuple:
    value = tuple(value)
    if len(value) != 2:
        raise ValueError(f"{name} must be a (lo, hi) pair, got {value!r}")
    lo, hi = value
    if lo > hi:
        raise ValueError(f"{name} must satisfy lo <= hi, got {value!r}")
    if lo_ok is not None and lo < lo_ok:
        raise ValueError(f"{name} must start at >= {lo_ok}, got {value!r}")
    return value


@dataclass(frozen=True)
class TopologySpec:
    """The city-shape axis: which family, at what size."""

    family: str = "grid"
    #: Grid family.
    rows: int = 10
    cols: int = 10
    #: Radial family.
    rings: int = 6
    spokes: int = 12
    #: Multi-centre family.
    centres: int = 3
    block: int = 6

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown topology family {self.family!r}; expected one "
                f"of {', '.join(FAMILIES)}"
            )
        if self.family == "grid" and (self.rows < 3 or self.cols < 3):
            raise ValueError("grid topologies need rows, cols >= 3")
        if self.family == "radial" and (self.rings < 2 or self.spokes < 4):
            raise ValueError("radial topologies need rings >= 2, spokes >= 4")
        if self.family == "multi_centre" and (
            self.centres < 2 or self.block < 3
        ):
            raise ValueError(
                "multi-centre topologies need centres >= 2, block >= 3"
            )


@dataclass(frozen=True)
class FleetSpec:
    """The bus-fleet axis: size and veracity."""

    n_buses: int = 20
    n_lines: int = 5
    unreliable_fraction: float = 0.0
    unreliable_mode: str = "stuck_congested"

    def __post_init__(self) -> None:
        if self.n_buses < 1 or self.n_lines < 1:
            raise ValueError("fleet needs n_buses >= 1 and n_lines >= 1")
        if not 0.0 <= self.unreliable_fraction <= 1.0:
            raise ValueError("unreliable_fraction must be within [0, 1]")
        if self.unreliable_mode not in ("stuck_congested", "inverted"):
            raise ValueError(
                f"unreliable_mode must be 'stuck_congested' or "
                f"'inverted', got {self.unreliable_mode!r}"
            )


@dataclass(frozen=True)
class SensorSpec:
    """The sensor-coverage axis: how much of the city SCATS sees."""

    #: Fraction of junctions hosting a SCATS intersection (the
    #: coverage-sweep knob; Dublin's real deployment is ~0.85).
    coverage: float = 0.35
    sensors_range: tuple[int, int] = (2, 4)
    #: Fraction of detectors stuck at a free-flow reading.
    fault_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.coverage <= 1.0:
            raise ValueError("coverage must be within (0, 1]")
        lo, hi = _pair("sensors_range", self.sensors_range, lo_ok=1)
        object.__setattr__(self, "sensors_range", (int(lo), int(hi)))
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError("fault_rate must be within [0, 1]")


@dataclass(frozen=True)
class StormSpec:
    """An incident storm: seeded incidents over a window.

    Epicentres are drawn (by the scenario seed) from SCATS-monitored
    junctions — an incident nobody senses cannot be recognised, and
    the envelope exists to check what the system *observes*.
    """

    n_incidents: int = 4
    #: Incident start window in seconds *from scenario start*;
    #: ``None`` means the whole run.
    window: Optional[tuple[int, int]] = None
    #: Severity range (added density at the epicentre, veh/km).
    severity: tuple[float, float] = (55.0, 90.0)
    #: Incident duration range in seconds.
    length: tuple[int, int] = (1200, 5400)

    def __post_init__(self) -> None:
        if self.n_incidents < 1:
            raise ValueError("a storm needs n_incidents >= 1")
        if self.window is not None:
            object.__setattr__(
                self, "window", _pair("storm window", self.window, lo_ok=0)
            )
        object.__setattr__(
            self, "severity", _pair("storm severity", self.severity, lo_ok=0)
        )
        lo, hi = _pair("storm length", self.length, lo_ok=1)
        object.__setattr__(self, "length", (int(lo), int(hi)))


@dataclass(frozen=True)
class StadiumSpec:
    """A stadium-event surge: a venue floods its neighbourhood.

    ``at`` is seconds from scenario start; the venue is picked (by the
    scenario seed) among SCATS-monitored junctions, so the surge is
    observable through the sensor feed the envelope checks.
    """

    at: int = 900
    duration: int = 1800
    magnitude: float = 60.0
    radius_hops: int = 2

    def __post_init__(self) -> None:
        if self.at < 0 or self.duration < 60:
            raise ValueError(
                "a stadium event needs at >= 0 and duration >= 60"
            )
        if self.magnitude <= 0 or self.radius_hops < 0:
            raise ValueError(
                "a stadium event needs magnitude > 0 and radius_hops >= 0"
            )


@dataclass(frozen=True)
class WeatherSpec:
    """A weather slowdown window (city-wide density multiplier);
    ``start``/``end`` are seconds from scenario start."""

    start: int = 0
    end: int = 1800
    density_factor: float = 1.4

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError("weather needs 0 <= start < end")
        if self.density_factor <= 0:
            raise ValueError("density_factor must be positive")


#: SystemConfig keys a scenario's ``system`` section may *not* set:
#: the runner owns them (seed comes from the spec; execution paths are
#: chosen per parity variant).
RESERVED_SYSTEM_KEYS = frozenset(
    {
        "seed",
        "incremental",
        "compiled_rules",
        "sharded",
        "shard_dir",
        "region_groups",
    }
)


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete scenario: city, workload, disruptions, envelope."""

    name: str
    description: str = ""
    seed: int = 0
    #: Simulated time-of-day the run starts at (seconds from
    #: midnight).  The ground truth's daily demand profile makes this
    #: a real axis: the same city at 03:30 and at 08:30 behaves very
    #: differently.
    start: int = 0
    #: Simulated seconds of stream the scenario runs over.
    duration: int = 2700
    topology: TopologySpec = field(default_factory=TopologySpec)
    fleet: FleetSpec = field(default_factory=FleetSpec)
    sensors: SensorSpec = field(default_factory=SensorSpec)
    storm: Optional[StormSpec] = None
    stadium: Optional[StadiumSpec] = None
    weather: Optional[WeatherSpec] = None
    #: :class:`repro.system.SystemConfig` overrides (window, step,
    #: fault_profile, n_participants, ...).  Seed and execution-path
    #: keys are reserved — the runner sets those.
    system: tuple[tuple[str, Any], ...] = ()
    #: The acceptance envelope (imported lazily to avoid a cycle).
    envelope: Any = None

    def __post_init__(self) -> None:
        from .envelope import EnvelopeSpec

        if not self.name or not self.name.replace("_", "").isalnum():
            raise ValueError(
                "scenario name must be a non-empty [a-z0-9_] identifier"
            )
        if self.seed < 0:
            raise ValueError("seed must not be negative")
        if not 0 <= self.start < 24 * 3600:
            raise ValueError(
                "start must be a time of day in [0, 86400) seconds"
            )
        if self.duration < 600:
            raise ValueError("duration must be at least 600 s (one window)")
        if isinstance(self.system, Mapping):
            object.__setattr__(
                self, "system", tuple(sorted(self.system.items()))
            )
        reserved = RESERVED_SYSTEM_KEYS & {k for k, _ in self.system}
        if reserved:
            raise ValueError(
                f"system section must not set {sorted(reserved)}: the "
                f"scenario runner owns seed and execution-path keys"
            )
        if self.envelope is None:
            object.__setattr__(self, "envelope", EnvelopeSpec())

    @property
    def system_overrides(self) -> dict[str, Any]:
        """The ``system`` section as a plain dict."""
        return dict(self.system)

    # ------------------------------------------------------------------
    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "ScenarioSpec":
        """Parse and validate one scenario document."""
        from .envelope import EnvelopeSpec

        if not isinstance(mapping, Mapping):
            raise ValueError("a scenario spec must be a mapping")
        known = {f.name for f in fields(cls)}
        reject_unknown_keys(mapping, known, "scenario")
        kwargs: dict[str, Any] = {}
        for key, value in mapping.items():
            if key == "topology":
                value = _section(TopologySpec, value, "topology")
            elif key == "fleet":
                value = _section(FleetSpec, value, "fleet")
            elif key == "sensors":
                value = _section(SensorSpec, value, "sensors")
            elif key == "storm" and value is not None:
                value = _section(StormSpec, value, "storm")
            elif key == "stadium" and value is not None:
                value = _section(StadiumSpec, value, "stadium")
            elif key == "weather" and value is not None:
                value = _section(WeatherSpec, value, "weather")
            elif key == "envelope" and value is not None:
                value = EnvelopeSpec.from_mapping(value)
            elif key == "system":
                if not isinstance(value, Mapping):
                    raise ValueError("system section must be a mapping")
                value = tuple(sorted(value.items()))
            kwargs[key] = value
        return cls(**kwargs)

    def to_mapping(self) -> dict[str, Any]:
        """Serialise back to a JSON-native nested mapping.

        ``ScenarioSpec.from_mapping(spec.to_mapping())`` reconstructs
        an equal spec — the round-trip half of the determinism pin.
        """

        def _plain(value):
            if isinstance(value, tuple):
                return [_plain(v) for v in value]
            return value

        def _section_mapping(section) -> dict[str, Any]:
            return {
                f.name: _plain(getattr(section, f.name))
                for f in fields(section)
            }

        out: dict[str, Any] = {
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "start": self.start,
            "duration": self.duration,
            "topology": _section_mapping(self.topology),
            "fleet": _section_mapping(self.fleet),
            "sensors": _section_mapping(self.sensors),
        }
        for key in ("storm", "stadium", "weather"):
            section = getattr(self, key)
            if section is not None:
                out[key] = _section_mapping(section)
        if self.system:
            out["system"] = {k: _plain(v) for k, v in self.system}
        out["envelope"] = self.envelope.to_mapping()
        return out
