"""Deterministic event-time runtime for the Streams analog.

The original Streams framework compiles the data-flow description "into
a computation graph for a stream processing engine" (paper, Section 3)
and executes it with threads.  For a reproducible evaluation we run the
graph single-threaded in simulated *event time*: all source items are
merged by arrival time and pushed through their consuming processes;
items a process emits to a queue are delivered to the queue's consumers
at the same timestamp, before any later source item.  The result is a
deterministic execution whose outputs depend only on the inputs.

Dispatch is driven by a *consumer index* precomputed by
:meth:`Topology.validate`: delivering an item costs one dict lookup
instead of a scan over every process, and runs of items sharing the
same arrival time and input are drained from the schedule in one batch
so the lookup (and the heap traffic) is paid once per run, not once
per item.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from ..obs import Registry
from .items import DataItem, item_arrival
from .processes import Process, Queue, Source
from .processors import Processor, normalise_result
from .services import ServiceRegistry
from .supervision import ProcessorTimeout, Supervisor


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

    Nodes can be registered with the classic ``add_*`` methods or with
    the fluent builder methods (:meth:`source`, :meth:`process`,
    :meth:`service`), which return the topology so a whole graph reads
    as one chained expression::

        topo = (
            Topology()
            .source("readings", items)
            .process("clean", input="readings",
                     processors=[Filter(keep)], output="clean")
            .process("sink", input="clean", processors=[Tap(print)])
        )
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

    # -- fluent builder --------------------------------------------------
    def source(self, name, items: Iterable[DataItem] = ()) -> "Topology":
        """Builder: register a source and return the topology.

        Accepts either a ready :class:`Source` instance (``items`` is
        then ignored) or a name plus the items to wrap.
        """
        if isinstance(name, Source):
            self.add_source(name)
        else:
            self.add_source(Source(name, items))
        return self

    def process(
        self,
        name,
        *,
        input: Optional[str] = None,
        processors: Optional[Sequence[Processor]] = None,
        output: Optional[str] = None,
    ) -> "Topology":
        """Builder: register a process node and return the topology.

        Accepts either a ready :class:`Process` instance (the keyword
        arguments are then ignored) or a name plus ``input`` and
        ``processors``.
        """
        if isinstance(name, Process):
            self.add_process(name)
            return self
        if input is None or processors is None:
            raise TypeError(
                "process() needs input= and processors= (or a Process "
                "instance)"
            )
        self.add_process(
            Process(name, input=input, processors=processors, output=output)
        )
        return self

    def service(self, name: str, obj) -> "Topology":
        """Builder: register a shared service and return the topology."""
        self.services.register(name, obj)
        return self

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
    supervisor:
        Optional :class:`~repro.streams.supervision.Supervisor`; when
        given, processor-chain failures are handled by per-process
        error policies (retry / skip / fail), poisoned items land in
        the supervisor's dead-letter queue, and a circuit breaker per
        input short-circuits traffic after repeated failures (see
        ``docs/robustness.md``).  Without one, any chain exception
        propagates — the historical behaviour.
    """

    def __init__(
        self,
        topology: Topology,
        metrics: Optional[Registry] = None,
        supervisor: Optional[Supervisor] = None,
    ):
        self.topology = topology
        self.metrics = metrics
        self.supervisor = supervisor
        if supervisor is not None and supervisor.metrics is None:
            supervisor.metrics = metrics

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
            supervisor = self.supervisor
            for item in batch:
                if supervisor is not None and not supervisor.breaker_for(
                    input_name
                ).allow(arrival):
                    supervisor.short_circuit(input_name, item, arrival)
                    continue
                # Queue items were already retained at emission time;
                # here they are only forwarded to consuming processes.
                for process in consumers:
                    if timed:
                        t0 = perf_counter()
                    for out_item in self._dispatch(
                        process, item, input_name, arrival
                    ):
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
        if self.supervisor is not None:
            self.supervisor.record_breaker_states()
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

    def _run_chain(
        self, process: Process, item: DataItem
    ) -> Iterable[DataItem]:
        """Push one item through a process's processor chain."""
        process.consumed += 1
        batch = self._apply_chain(process, item)
        process.produced += len(batch)
        return batch

    def _apply_chain(
        self, process: Process, item: DataItem
    ) -> list[DataItem]:
        """The raw chain application, without counter bookkeeping."""
        batch = [item]
        for processor in process.processors:
            next_batch: list[DataItem] = []
            for current in batch:
                next_batch.extend(normalise_result(processor.process(current)))
            batch = next_batch
            if not batch:
                break
        return batch

    def _dispatch(
        self,
        process: Process,
        item: DataItem,
        input_name: str,
        arrival: int,
    ) -> Iterable[DataItem]:
        """Run one item through one process under supervision.

        Without a supervisor this is exactly :meth:`_run_chain`.  With
        one, chain failures (including soft-timeout overruns) go
        through the process's error policy: ``fail`` propagates,
        ``retry`` re-runs the chain with accounted backoff, and
        exhausted/skipped items are dead-lettered and reported to the
        input's circuit breaker.
        """
        supervisor = self.supervisor
        if supervisor is None:
            return self._run_chain(process, dict(item))
        policy = supervisor.policy_for(process)
        process.consumed += 1
        attempts = 0
        while True:
            attempts += 1
            try:
                t0 = perf_counter()
                batch = self._apply_chain(process, dict(item))
                elapsed = perf_counter() - t0
                if (
                    policy.timeout_s is not None
                    and elapsed > policy.timeout_s
                ):
                    raise ProcessorTimeout(
                        f"process {process.name!r} spent {elapsed:.4f}s on "
                        f"one item (budget {policy.timeout_s}s)"
                    )
            except Exception as exc:
                supervisor.chain_failed(
                    exc, timeout=isinstance(exc, ProcessorTimeout)
                )
                if policy.mode == "fail":
                    raise
                if policy.mode == "retry" and attempts <= policy.max_retries:
                    supervisor.account_backoff(policy.backoff_s(attempts))
                    continue
                supervisor.dead_letter(
                    process=process.name,
                    input_name=input_name,
                    item=item,
                    error=exc,
                    attempts=attempts,
                    arrival=arrival,
                )
                supervisor.breaker_failure(input_name, arrival)
                return []
            else:
                supervisor.breaker_success(input_name, arrival)
                process.produced += len(batch)
                return batch
