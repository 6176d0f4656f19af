"""Event and fluent primitives for the RTEC reproduction.

The paper's input is a stream of *simple derived events* (SDEs):
time-stamped records produced by mediators from raw sensor readings
(Section 2).  Two kinds of facts feed RTEC:

* ``happensAt(E, T)`` facts — instantaneous event occurrences, e.g.
  ``move(Bus, Line, Operator, Delay)`` or
  ``traffic(Int, A, S, D, F)``;
* input-fluent facts — time-stamped values of fluents provided by the
  data source itself, e.g.
  ``gps(Bus, Lon, Lat, Direction, Congestion) = true`` which the bus
  dataset pairs with each ``move`` event (formalisation (1)).

Both are modelled here.  Every record carries two timestamps: the
*occurrence* time used by the event-calculus semantics, and the
*arrival* time used by the windowing machinery (the paper's Figure 2
discusses SDEs that occur before a query time but arrive after it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping, Optional

FluentKey = tuple[Any, ...]


def _frozen(payload: Mapping[str, Any]) -> Mapping[str, Any]:
    """Wrap a payload mapping read-only (records are value objects)."""
    if isinstance(payload, MappingProxyType):
        return payload
    return MappingProxyType(dict(payload))


@dataclass(frozen=True)
class Event:
    """An instantaneous event occurrence — ``happensAt(E, T)``.

    Parameters
    ----------
    type:
        The event-type name (the predicate symbol), e.g. ``"move"``.
    time:
        Occurrence time-point (integer seconds from scenario start).
    payload:
        The event attributes (predicate arguments) as a mapping.
    arrival:
        The time the record became visible to the engine.  Defaults to
        the occurrence time; mediators and networks can delay it.
    """

    type: str
    time: int
    payload: Mapping[str, Any] = field(default_factory=dict)
    arrival: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "payload", _frozen(self.payload))
        if self.arrival is None:
            object.__setattr__(self, "arrival", self.time)
        elif self.arrival < self.time:
            raise ValueError(
                f"event of type {self.type!r} arrives at {self.arrival} "
                f"before it occurs at {self.time}"
            )

    def __getitem__(self, key: str) -> Any:
        return self.payload[key]

    def get(self, key: str, default: Any = None) -> Any:
        """Payload attribute access with a default."""
        return self.payload.get(key, default)

    def __reduce__(self):
        # MappingProxyType is not picklable; rebuild through the
        # constructor from a plain dict (re-frozen in __post_init__).
        return (Event, (self.type, self.time, dict(self.payload), self.arrival))

    def replace_payload(self, **changes: Any) -> "Event":
        """Return a copy of the event with updated payload attributes."""
        merged = dict(self.payload)
        merged.update(changes)
        return Event(self.type, self.time, merged, self.arrival)


@dataclass(frozen=True)
class FluentFact:
    """A time-stamped input-fluent value — ``holdsAt(F=V, T)`` given as
    data (formalisation (1) in the paper: the ``gps`` fluent).

    Parameters
    ----------
    name:
        Fluent name, e.g. ``"gps"``.
    key:
        The grounding of the fluent's index arguments, e.g.
        ``(bus_id,)``.
    value:
        The fluent's value at ``time`` — for ``gps`` a mapping with
        ``lon``, ``lat``, ``direction`` and ``congestion`` entries.
    time:
        Occurrence time-point.
    arrival:
        Arrival time (defaults to occurrence).
    """

    name: str
    key: FluentKey
    value: Any
    time: int
    arrival: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.key, tuple):
            object.__setattr__(self, "key", tuple(self.key))
        if isinstance(self.value, dict):
            object.__setattr__(self, "value", _frozen(self.value))
        if self.arrival is None:
            object.__setattr__(self, "arrival", self.time)
        elif self.arrival < self.time:
            raise ValueError(
                f"fluent fact {self.name!r} arrives at {self.arrival} "
                f"before it occurs at {self.time}"
            )

    def __reduce__(self):
        value = self.value
        if isinstance(value, MappingProxyType):
            value = dict(value)
        return (FluentFact, (self.name, self.key, value, self.time, self.arrival))


@dataclass(frozen=True)
class Occurrence:
    """A recognised instance of a derived (complex) event.

    Produced by :class:`repro.core.rules.DerivedEvent` definitions, e.g.
    ``delayIncrease(Bus, Lon', Lat', Lon, Lat)``.
    """

    type: str
    key: FluentKey
    time: int
    payload: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.key, tuple):
            object.__setattr__(self, "key", tuple(self.key))
        object.__setattr__(self, "payload", _frozen(self.payload))

    def __getitem__(self, key: str) -> Any:
        return self.payload[key]

    def get(self, key: str, default: Any = None) -> Any:
        """Payload attribute access with a default."""
        return self.payload.get(key, default)

    def __reduce__(self):
        return (Occurrence, (self.type, self.key, self.time, dict(self.payload)))
