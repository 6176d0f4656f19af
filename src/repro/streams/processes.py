"""Streams, queues and processes — the data-flow graph nodes.

"The actual processing logic, i.e. the nodes of the data flow graph, is
realised by processes that comprise a sequence of processors.
Processes take a stream or a queue as input" (paper, Section 3).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from typing import Optional

from .items import ARRIVAL_KEY, SOURCE_KEY, TIME_KEY, DataItem, item_arrival
from .processors import Processor


class Source:
    """A named, finite stream of data items ordered by arrival time.

    Items must carry an event-time stamp (``@time``); an ``@arrival``
    stamp is added from the event time when missing, and the source name
    is stamped as ``@source``.
    """

    def __init__(self, name: str, items: Iterable[DataItem]):
        self.name = name
        stamped = []
        for item in items:
            item = dict(item)
            if TIME_KEY not in item:
                raise ValueError(
                    f"source {name!r}: every item needs a {TIME_KEY} stamp"
                )
            item.setdefault(ARRIVAL_KEY, item[TIME_KEY])
            item.setdefault(SOURCE_KEY, name)
            stamped.append(item)
        stamped.sort(key=item_arrival)
        self._items = stamped

    def __iter__(self) -> Iterator[DataItem]:
        return iter(self._items)

class Queue:
    """A named FIFO connecting processes.

    The runtime delivers enqueued items to every process whose input is
    this queue; when no process consumes it, items accumulate and can be
    inspected afterwards (a convenient sink for tests and operators).
    """

    def __init__(self, name: str):
        self.name = name
        self.items: deque[DataItem] = deque()

    def put(self, item: DataItem) -> None:
        """Append an item (runtime use)."""
        self.items.append(item)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[DataItem]:
        return iter(self.items)

    def snapshot(self) -> list[DataItem]:
        """A list copy of the currently-buffered items."""
        return list(self.items)


class Process:
    """A named chain of processors with one input and optional output.

    Parameters
    ----------
    name:
        Process identifier (unique within a topology).
    input:
        The name of the source stream or queue this process consumes.
    processors:
        The processor chain; each item flows through all of them in
        order (a processor may drop the item or fan it out).
    output:
        Optional queue name to which surviving items are forwarded.
    """

    def __init__(
        self,
        name: str,
        input: str,
        processors: Sequence[Processor],
        output: Optional[str] = None,
    ):
        if not processors:
            raise ValueError(f"process {name!r} needs at least one processor")
        self.name = name
        self.input = input
        self.processors = list(processors)
        self.output = output
        #: Number of items that entered this process.
        self.consumed = 0
        #: Number of items that left the end of the chain.
        self.produced = 0
