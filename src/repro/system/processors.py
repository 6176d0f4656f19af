"""Streams-middleware embeddings of the analysis components.

The paper integrates RTEC "by a dedicated processor in Streams that
would forward the received SDEs to an RTEC instance ... Then, the
actual event processing is triggered asynchronously and the derived
CEs are emitted to a queue in the Streams framework" (Section 3), and
implements the crowdsourcing steps as dedicated processors likewise.
These classes reproduce that embedding so the whole loop can be wired
as an XML data-flow graph.
"""

from __future__ import annotations

from ..core.events import Event, FluentFact
from ..core.rtec import RTEC, RecognitionLog
from ..dublin.dataset import event_to_item, item_to_event, item_to_fact
from ..streams.items import TIME_KEY, DataItem, item_arrival
from ..streams.processors import Processor, ProcessorResult
from .crowdloop import CrowdLoop


class RtecProcessor(Processor):
    """Embeds an RTEC engine in a Streams process.

    Consumes SDE/fluent data items one at a time, keeps those of the
    current step in a list, and hands the list to the engine once per
    query time: query ``q`` runs — preceded by that one feed — when an
    item arriving after ``q`` (or the clock hook, or :meth:`flush`)
    proves that everything arriving by ``q`` is in.  Fresh CE
    occurrences and fluent episodes are emitted as data items
    (``@type`` = CE name, episodes flagged with ``episode=True``), each
    carrying the ``query_time`` that surfaced it and the ``snapshot``
    it was read from.
    """

    def __init__(self, engine: RTEC, *, start: int = 0):
        self.engine = engine
        self.log = RecognitionLog()
        self._next_query = start + engine.step
        self._events: list[Event] = []
        self._facts: list[FluentFact] = []

    def _recognise_until(self, t: int) -> list[DataItem]:
        out: list[DataItem] = []
        while self._next_query <= t:
            q = self._next_query
            if self._events or self._facts:
                self.engine.feed(self._events, self._facts)
                self._events, self._facts = [], []
            snapshot = self.engine.query(q)
            fresh = self.log.add(snapshot)
            surfaced = {"query_time": q, "snapshot": snapshot}
            for occ in fresh.occurrences:
                out.append({
                    **occ.payload, "@type": occ.type, TIME_KEY: occ.time,
                    "key": occ.key, **surfaced,
                })
            for name, key, start, end in fresh.episodes:
                out.append({
                    "@type": name, TIME_KEY: start, "key": key,
                    "episode": True, "end": end, **surfaced,
                })
            self._next_query += self.engine.step
        return out

    def process(self, item: DataItem) -> ProcessorResult:
        # Everything arriving by a query time before this arrival is
        # in; the item itself belongs to a later step.
        out = self._recognise_until(item_arrival(item) - 1)
        if item.get("@type", "").startswith("fluent:"):
            self._facts.append(item_to_fact(item))
        else:
            self._events.append(item_to_event(item))
        return out

    def advance(self, now: int) -> ProcessorResult:
        """Clock hook: run query times that fell strictly before ``now``.

        Keeps recognition flowing while this region's own input is
        silent but the merged stream's clock advances.  Only queries
        ``< now`` run — a query at exactly ``now`` must wait for the
        items arriving at ``now`` (the runtime fires the hook before
        delivering them).
        """
        return self._recognise_until(now - 1)

    def flush(self, until: int) -> list[DataItem]:
        """Run any outstanding query times up to ``until`` (end of
        stream)."""
        return self._recognise_until(until)


class CrowdsourcingProcessor(Processor):
    """Embeds the crowdsourcing leg in a Streams process.

    Consumes the ``sourceDisagreement`` episode items emitted by
    :class:`RtecProcessor` — resolved at the query time that surfaced
    them, for the ``region`` the wiring stamped on them (if any) — and
    produces ``crowd`` SDE items carrying the fused answer.
    """

    def __init__(self, crowd_loop: CrowdLoop):
        self.crowd_loop = crowd_loop

    def process(self, item: DataItem) -> ProcessorResult:
        if item.get("@type") != "sourceDisagreement":
            return None
        event = self.crowd_loop.resolve(
            item.get("region"),
            item["query_time"],
            item["key"][0],
            item[TIME_KEY],
            item.get("snapshot"),
        )
        return None if event is None else event_to_item(event)


class FluentFeedbackProcessor(Processor):
    """Feeds ``crowd`` SDE items back into an RTEC engine.

    Closes the loop in a Streams wiring: the crowd queue is consumed by
    this processor, which injects the events so rule-sets (4)/(5) can
    evaluate them at the next query time.
    """

    def __init__(self, engine: RTEC):
        self.engine = engine

    def process(self, item: DataItem) -> ProcessorResult:
        self.engine.feed(events=[item_to_event(item)])
        return item
