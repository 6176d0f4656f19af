"""Streams-middleware embeddings of the analysis components.

The paper integrates RTEC "by a dedicated processor in Streams that
would forward the received SDEs to an RTEC instance ... Then, the
actual event processing is triggered asynchronously and the derived
CEs are emitted to a queue in the Streams framework" (Section 3), and
implements the crowdsourcing steps as dedicated processors likewise.
These classes are that embedding for one
:class:`~repro.system.pipeline.UrbanTrafficSystem`: each calls the
system's own step stages, so a graph wired from them does what the
system's direct loop does.  A data item carries one recognition step's
column block per feed, or one step's results — never one SDE.
"""

from __future__ import annotations

from ..core.columns import SDEColumns
from ..core.rtec import RecognitionLog
from ..streams.items import TIME_KEY, DataItem
from ..streams.processors import Processor, ProcessorResult

#: The system's two SDE feeds: a region's engine queries a step once
#: it holds that step's block of each.
FEEDS = ("bus", "scats")


class RtecProcessor(Processor):
    """Embeds one region's RTEC engine in a Streams process.

    Consumes one column block per feed and recognition step — items
    ``{"feed", "block", "step", "@time": q}``.  Once the step's block of
    each of :data:`FEEDS` is in, it hands them to the engine as one
    batch, runs the query at ``q``, records it in :attr:`log` and emits
    one item ``{"region", "step", "@time": q, "fresh"}`` holding the
    step's :class:`~repro.core.rtec.FreshResults`.
    """

    def __init__(self, system, region: str):
        self.system = system
        self.region = region
        self.engine = system.engines[region]
        self.log = RecognitionLog()
        self._blocks: dict[str, SDEColumns] = {}

    def process(self, item: DataItem) -> ProcessorResult:
        self._blocks[item["feed"]] = item["block"]
        if len(self._blocks) < len(FEEDS):
            return None
        blocks = [self._blocks.pop(feed) for feed in FEEDS]
        self.system._feed_region(
            self.region,
            SDEColumns(
                [b for block in blocks for b in block.events],
                [b for block in blocks for b in block.facts],
            ),
        )
        q = item[TIME_KEY]
        snapshot = self.engine.query(q)
        return {
            TIME_KEY: q,
            "step": item["step"],
            "region": self.region,
            "fresh": self.system._recognised(self.region, snapshot, self.log),
        }


class CrowdsourcingProcessor(Processor):
    """Embeds the crowdsourcing leg in a Streams process.

    Consumes the items :class:`RtecProcessor` emits and crowdsources
    their fresh ``sourceDisagreement`` episodes under the feeds
    degraded now; emits ``{"step", "@time": q, "feed"}`` with the
    ``crowd`` SDEs to feed back, or nothing when there are none.
    """

    def __init__(self, system):
        self.system = system

    def process(self, item: DataItem) -> ProcessorResult:
        system = self.system
        feed = system._crowdsource(
            item["region"],
            item[TIME_KEY],
            item["fresh"],
            system.degradation.degraded_feeds,
        )
        if not feed:
            return None
        return {TIME_KEY: item[TIME_KEY], "step": item["step"], "feed": feed}


class FluentFeedbackProcessor(Processor):
    """Feeds the ``crowd`` SDEs of a :class:`CrowdsourcingProcessor`
    item back into every engine of the system.

    Closes the loop in a Streams wiring, so rule-sets (4)/(5) can
    evaluate the answers at the next query time.
    """

    def __init__(self, system):
        self.system = system

    def process(self, item: DataItem) -> ProcessorResult:
        self.system._deliver_crowd_feed(item["step"], item["feed"])
        return item
