"""Dataset persistence and stream adaptation.

The Dublin streams are distributed as files (dublinked.ie); this module
provides the equivalent round-trip for the synthetic scenario — JSONL
serialisation of SDE streams — plus adapters between the event-calculus
records and the Streams middleware's data items.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from pathlib import Path

from ..core.events import Event, FluentFact
from ..streams.items import ARRIVAL_KEY, TIME_KEY, DataItem
from .scenario import ScenarioData


def event_to_item(event: Event) -> DataItem:
    """Convert an SDE to a Streams data item."""
    item: DataItem = dict(event.payload)
    item["@type"] = event.type
    item[TIME_KEY] = event.time
    item[ARRIVAL_KEY] = event.arrival
    return item


def item_to_event(item: DataItem) -> Event:
    """Convert a Streams data item back to an SDE."""
    payload = {
        k: v for k, v in item.items() if not k.startswith("@")
    }
    return Event(
        item["@type"],
        item[TIME_KEY],
        payload,
        arrival=item.get(ARRIVAL_KEY, item[TIME_KEY]),
    )


def fact_to_item(fact: FluentFact) -> DataItem:
    """Convert a fluent fact (e.g. ``gps``) to a Streams data item."""
    item: DataItem = {
        "@type": f"fluent:{fact.name}",
        "@key": list(fact.key),
        TIME_KEY: fact.time,
        ARRIVAL_KEY: fact.arrival,
        "value": dict(fact.value) if isinstance(fact.value, dict) or hasattr(
            fact.value, "keys"
        ) else fact.value,
    }
    return item


def item_to_fact(item: DataItem) -> FluentFact:
    """Convert a Streams data item back to a fluent fact."""
    type_tag = item["@type"]
    if not type_tag.startswith("fluent:"):
        raise ValueError(f"not a fluent item: {type_tag!r}")
    return FluentFact(
        type_tag.removeprefix("fluent:"),
        tuple(item["@key"]),
        item["value"],
        item[TIME_KEY],
        arrival=item.get(ARRIVAL_KEY, item[TIME_KEY]),
    )


def write_jsonl(path: str | Path, data: ScenarioData) -> int:
    """Persist a scenario stream as JSON lines; returns lines written.

    Events and facts are interleaved chronologically, each line tagged
    with its record kind.
    """
    path = Path(path)
    records: list[tuple[int, DataItem]] = []
    for event in data.events:
        records.append((event.time, event_to_item(event)))
    for fact in data.facts:
        records.append((fact.time, fact_to_item(fact)))
    records.sort(key=lambda r: r[0])
    with path.open("w", encoding="utf-8") as handle:
        for _, item in records:
            handle.write(json.dumps(item, sort_keys=True) + "\n")
    return len(records)


def read_jsonl(path: str | Path) -> ScenarioData:
    """Load a scenario stream previously written by :func:`write_jsonl`."""
    path = Path(path)
    events: list[Event] = []
    facts: list[FluentFact] = []
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            item = json.loads(line)
            if item["@type"].startswith("fluent:"):
                facts.append(item_to_fact(item))
            else:
                events.append(item_to_event(item))
    start = min(
        [e.time for e in events] + [f.time for f in facts], default=0
    )
    end = max(
        [e.time for e in events] + [f.time for f in facts], default=0
    )
    return ScenarioData.from_sdes(events, facts, start, end + 1)


def stream_items(data: ScenarioData) -> Iterator[DataItem]:
    """All records of a scenario as Streams data items, by arrival."""
    items = [event_to_item(e) for e in data.events]
    items.extend(fact_to_item(f) for f in data.facts)
    items.sort(key=lambda i: i.get(ARRIVAL_KEY, i[TIME_KEY]))
    return iter(items)

