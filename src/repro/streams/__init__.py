"""Streams-framework analog (the paper's Sections 2–3 middleware).

Data items are key/value dicts; *sources* feed *processes* (chains of
*processors*) connected by *queues*, with shared *services*; the graph
can be described in XML and is executed deterministically in event
time by :class:`StreamRuntime`.  A processor's exception propagates out
of the run: the graph has no error policy of its own.
"""

from .items import ARRIVAL_KEY, SOURCE_KEY, TIME_KEY, DataItem, item_arrival
from .processes import Process, Queue, Source
from .processors import (
    Counter,
    Filter,
    Processor,
    SetAttributes,
    Tap,
    Transform,
    normalise_result,
)
from .runtime import RunStats, StreamRuntime, Topology
from .services import ServiceRegistry
from .xmlconfig import XmlConfigError, coerce_attribute, parse_topology

__all__ = [
    "DataItem",
    "TIME_KEY",
    "ARRIVAL_KEY",
    "SOURCE_KEY",
    "item_arrival",
    "Source",
    "Queue",
    "Process",
    "Processor",
    "Filter",
    "Transform",
    "SetAttributes",
    "Tap",
    "Counter",
    "normalise_result",
    "ServiceRegistry",
    "Topology",
    "StreamRuntime",
    "RunStats",
    "parse_topology",
    "coerce_attribute",
    "XmlConfigError",
]
