"""Test-only stream items and sinks."""

from __future__ import annotations

from typing import Any, Mapping

from repro.streams import ARRIVAL_KEY, SOURCE_KEY, TIME_KEY, DataItem, Processor


def make_item(
    payload: Mapping[str, Any],
    *,
    time: int | None = None,
    arrival: int | None = None,
    source: str | None = None,
) -> DataItem:
    """Build a data item, stamping the reserved keys when provided."""
    item: DataItem = dict(payload)
    if time is not None:
        item[TIME_KEY] = time
    if arrival is not None:
        item[ARRIVAL_KEY] = arrival
    if source is not None:
        item[SOURCE_KEY] = source
    return item


class Collect(Processor):
    """Accumulate every item into a list (test/inspection sink)."""

    def __init__(self) -> None:
        self.items: list[DataItem] = []

    def process(self, item: DataItem):
        self.items.append(item)
        return item
