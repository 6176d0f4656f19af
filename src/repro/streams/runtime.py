"""Deterministic event-time runtime for the Streams analog.

The original Streams framework compiles the data-flow description "into
a computation graph for a stream processing engine" (paper, Section 3)
and executes it with threads.  For a reproducible evaluation we run the
graph single-threaded in simulated *event time*: all source items are
merged by arrival time and pushed through their consuming processes;
items a process emits to a queue are delivered to the queue's consumers
at the same timestamp, before any later source item.  The result is a
deterministic execution whose outputs depend only on the inputs.
There is one dispatch path: an exception raised by a processor
propagates out of :meth:`StreamRuntime.run`, and nothing after it is
delivered.

Dispatch is driven by a *consumer index* precomputed by
:meth:`Topology.validate`: delivering an item costs one dict lookup
instead of a scan over every process, and runs of items sharing the
same arrival time and input are drained from the schedule in one batch
so the lookup (and the heap traffic) is paid once per run, not once
per item.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from ..obs import Registry
from .items import DataItem, item_arrival
from .processes import Process, Queue, Source
from .processors import normalise_result
from .services import ServiceRegistry


@dataclass
class RunStats:
    """Bookkeeping of one topology execution."""

    items_ingested: int = 0
    items_delivered: int = 0
    per_process: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: Wall-clock seconds of the dispatch loop.
    wall_seconds: float = 0.0

    def record_process(self, process: Process) -> None:
        """Store a process's consumed/produced counters."""
        self.per_process[process.name] = (process.consumed, process.produced)


class Topology:
    """A data-flow graph: sources, queues, processes and services.

    Nodes are registered with :meth:`add_source`, :meth:`add_process`
    and ``services.register``, or parsed from XML by
    :func:`~repro.streams.xmlconfig.parse_topology`.
    """

    def __init__(self) -> None:
        self.sources: dict[str, Source] = {}
        self.queues: dict[str, Queue] = {}
        self.processes: dict[str, Process] = {}
        self.services = ServiceRegistry()
        #: ``input name -> consuming processes``, rebuilt by
        #: :meth:`validate`; ``None`` marks the index as stale.
        self._consumer_index: Optional[dict[str, list[Process]]] = None

    # -- construction ----------------------------------------------------
    def add_source(self, source: Source) -> Source:
        """Register a source stream."""
        if source.name in self.sources:
            raise ValueError(f"duplicate source: {source.name!r}")
        self.sources[source.name] = source
        return source

    def add_process(self, process: Process) -> Process:
        """Register a process node."""
        if process.name in self.processes:
            raise ValueError(f"duplicate process: {process.name!r}")
        self.processes[process.name] = process
        self._consumer_index = None
        if process.output is not None and process.output not in self.queues:
            # A collision with a source declared in either order is
            # reported by validate(), not here.
            self.queues[process.output] = Queue(process.output)
        return self.processes[process.name]

    # -- validation / dispatch index --------------------------------------
    def validate(self) -> None:
        """Check the graph and (re)build the consumer index.

        Raises when a process consumes an unknown input, or when a
        process output carries the same name as a source: both would
        resolve to the *same* consumer list, so queue items would
        silently masquerade as source items.
        """
        shadowed = sorted(set(self.queues) & set(self.sources))
        if shadowed:
            raise ValueError(
                f"queue name(s) {shadowed!r} collide with source name(s): "
                "items enqueued there would shadow the source in consumer "
                "resolution; rename the queue or the source"
            )
        index: dict[str, list[Process]] = {}
        for process in self.processes.values():
            known = process.input in self.sources or process.input in self.queues
            if not known:
                raise ValueError(
                    f"process {process.name!r} consumes unknown input "
                    f"{process.input!r}"
                )
            index.setdefault(process.input, []).append(process)
        self._consumer_index = index

    def consumers_of(self, input_name: str) -> list[Process]:
        """The processes consuming ``input_name`` (indexed lookup).

        Builds the index on first use when :meth:`validate` has not run
        (or the graph changed since).
        """
        if self._consumer_index is None:
            self.validate()
        assert self._consumer_index is not None
        return self._consumer_index.get(input_name, [])


class StreamRuntime:
    """Executes a :class:`Topology` deterministically.

    Parameters
    ----------
    topology:
        The graph to run.
    metrics:
        Optional :class:`repro.obs.Registry`; when given, the runtime
        records per-process item counters, chain timings and an
        ``items_per_s`` throughput gauge under ``streams.process.<name>.*``
        (see ``docs/observability.md``).
    """

    def __init__(self, topology: Topology, metrics: Optional[Registry] = None):
        self.topology = topology
        self.metrics = metrics

    # ------------------------------------------------------------------
    def run(self) -> RunStats:
        """Drain all sources through the graph; returns run statistics."""
        topo = self.topology
        topo.validate()
        stats = RunStats()

        # Initialise processor chains.
        for process in topo.processes.values():
            for processor in process.processors:
                processor.init()
        topo.services.start_all()

        # Seed the schedule with all source items, merged by arrival.
        heap: list[tuple[int, int, str, DataItem]] = []
        seq = 0
        for source in topo.sources.values():
            for item in source:
                heapq.heappush(heap, (item_arrival(item), seq, source.name, item))
                seq += 1
                stats.items_ingested += 1

        timed = self.metrics is not None
        chain_seconds: dict[str, float] = {}
        t_run = perf_counter()
        while heap:
            arrival, _, input_name, item = heapq.heappop(heap)
            # Drain the whole same-timestamp run for this input in one
            # batch: items pushed during processing carry later
            # sequence numbers, so batching preserves the exact
            # delivery order of item-at-a-time dispatch.
            batch = [item]
            while (
                heap
                and heap[0][0] == arrival
                and heap[0][2] == input_name
            ):
                batch.append(heapq.heappop(heap)[3])
            consumers = topo.consumers_of(input_name)
            if not consumers:
                continue
            for item in batch:
                # Queue items were already retained at emission time;
                # here they are only forwarded to consuming processes.
                for process in consumers:
                    if timed:
                        t0 = perf_counter()
                    for out_item in self._run_chain(process, dict(item)):
                        stats.items_delivered += 1
                        if process.output is not None:
                            topo.queues[process.output].put(dict(out_item))
                            heapq.heappush(
                                heap,
                                (arrival, seq, process.output, out_item),
                            )
                            seq += 1
                    if timed:
                        chain_seconds[process.name] = (
                            chain_seconds.get(process.name, 0.0)
                            + (perf_counter() - t0)
                        )
        stats.wall_seconds = perf_counter() - t_run

        for process in topo.processes.values():
            for processor in process.processors:
                processor.finish()
            stats.record_process(process)
        topo.services.stop_all()
        if self.metrics is not None:
            self._record_metrics(stats, chain_seconds)
        return stats

    def _record_metrics(
        self, stats: RunStats, chain_seconds: dict[str, float]
    ) -> None:
        """Publish the run's counters/timings into the registry."""
        registry = self.metrics
        assert registry is not None
        registry.counter("streams.items.ingested").inc(stats.items_ingested)
        registry.counter("streams.items.delivered").inc(stats.items_delivered)
        registry.timing("streams.run.seconds").observe(stats.wall_seconds)
        for name, (consumed, produced) in stats.per_process.items():
            prefix = f"streams.process.{name}"
            registry.counter(f"{prefix}.consumed").inc(consumed)
            registry.counter(f"{prefix}.produced").inc(produced)
            seconds = chain_seconds.get(name, 0.0)
            registry.timing(f"{prefix}.seconds").observe(seconds)
            if seconds > 0.0:
                registry.gauge(f"{prefix}.items_per_s").set(
                    consumed / seconds
                )

    def _run_chain(self, process: Process, item: DataItem) -> list[DataItem]:
        """Push one item through a process's processor chain."""
        process.consumed += 1
        batch = [item]
        for processor in process.processors:
            next_batch: list[DataItem] = []
            for current in batch:
                next_batch.extend(normalise_result(processor.process(current)))
            batch = next_batch
            if not batch:
                break
        process.produced += len(batch)
        return batch
