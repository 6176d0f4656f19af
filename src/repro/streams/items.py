"""Data items for the Streams-framework analog.

The Streams framework "works on sequences of data items which are
represented by sets of key-value pairs, i.e. event attributes and their
values" (paper, Section 3).  We keep that representation: a data item
is a plain ``dict`` mapping attribute names to values, plus a small set
of helpers for the reserved keys the runtime uses.
"""

from __future__ import annotations

from typing import Any, Mapping

DataItem = dict[str, Any]

#: Reserved key: the event-time timestamp of the item (seconds).
TIME_KEY = "@time"
#: Reserved key: the arrival time of the item at the platform.
ARRIVAL_KEY = "@arrival"
#: Reserved key: the source stream the item originated from.
SOURCE_KEY = "@source"


def item_arrival(item: Mapping[str, Any]) -> int:
    """Arrival time of an item; falls back to its event-time."""
    return item.get(ARRIVAL_KEY, item[TIME_KEY])


def payload_of(item: Mapping[str, Any]) -> DataItem:
    """The item without the reserved ``@``-prefixed runtime keys."""
    return {k: v for k, v in item.items() if not k.startswith("@")}

