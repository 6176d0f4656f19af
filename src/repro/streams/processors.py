"""Processors: the per-item functions of the Streams framework.

"Processes take a stream or a queue as input and processors, in turn,
apply a function to the data items in a stream" (paper, Section 3).
A :class:`Processor` receives one data item and returns zero, one or
several items.  Custom processing logic — the RTEC embedding, the
crowdsourcing steps, the traffic-model service calls — is added by
subclassing, exactly like implementing the Streams API interfaces in
Java.
"""

from __future__ import annotations

import abc
from collections.abc import Callable
from typing import Any, Optional, Union

from .items import DataItem

#: What ``process`` may return: drop (None), pass one item, or fan out.
ProcessorResult = Union[None, DataItem, list[DataItem]]


class Processor(abc.ABC):
    """Base class of all processors."""

    def init(self) -> None:
        """Called once before the first item (resource setup)."""

    @abc.abstractmethod
    def process(self, item: DataItem) -> ProcessorResult:
        """Handle one data item."""

    def finish(self) -> None:
        """Called once after the last item (resource teardown)."""


def normalise_result(result: ProcessorResult) -> list[DataItem]:
    """Normalise a processor's return value into a list of items."""
    if result is None:
        return []
    if isinstance(result, dict):
        return [result]
    return list(result)


# ----------------------------------------------------------------------
# A small standard library of processors
# ----------------------------------------------------------------------
class Filter(Processor):
    """Keep only items satisfying a predicate."""

    def __init__(self, predicate: Callable[[DataItem], bool]):
        self.predicate = predicate

    def process(self, item: DataItem) -> ProcessorResult:
        return item if self.predicate(item) else None


class Transform(Processor):
    """Apply a function to every item (may drop or fan out)."""

    def __init__(self, fn: Callable[[DataItem], ProcessorResult]):
        self.fn = fn

    def process(self, item: DataItem) -> ProcessorResult:
        return self.fn(item)


class SetAttributes(Processor):
    """Add/overwrite fixed attributes on every item."""

    def __init__(self, **attributes: Any):
        self.attributes = attributes

    def process(self, item: DataItem) -> ProcessorResult:
        item.update(self.attributes)
        return item


class Tap(Processor):
    """Invoke a side-effect callback and pass the item through."""

    def __init__(self, callback: Callable[[DataItem], None]):
        self.callback = callback

    def process(self, item: DataItem) -> ProcessorResult:
        self.callback(item)
        return item


class Counter(Processor):
    """Count items, optionally per value of a grouping attribute."""

    def __init__(self, group_by: Optional[str] = None):
        self.group_by = group_by
        self.total = 0
        self.per_group: dict[Any, int] = {}

    def process(self, item: DataItem) -> ProcessorResult:
        self.total += 1
        if self.group_by is not None:
            group = item.get(self.group_by)
            self.per_group[group] = self.per_group.get(group, 0) + 1
        return item
