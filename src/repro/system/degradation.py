"""Graceful degradation under feed outages.

The integrated system reads two SDE feeds — the SCATS sensor stream
and the bus stream.  When one of them goes silent (a mediator crash, a
``blackout_scats`` fault profile, a real outage) the honest move is
*not* to keep recognising cross-source CEs as if both feeds were
healthy: ``sourceDisagreement`` against a dead feed is an artifact,
and crowdsourcing on top of it wastes participant goodwill.

:class:`DegradationManager` is the per-run breaker for this: the
pipeline reports each feed's arrival count once per recognition step,
and a feed whose count stays at zero for ``threshold`` consecutive
steps trips into *degraded* mode.  While degraded:

* alerts derived from CE definitions that read the dead feed are
  suppressed (see :func:`repro.core.traffic.feeds_of_definition` for
  the CE -> feed map) — the bus-derived CEs keep flowing when SCATS is
  out, and vice versa;
* crowd queries for source disagreements are suppressed (they need
  both feeds to mean anything).

The first arrival after an outage closes the breaker again; every
open/close transition is recorded as a degraded interval so the
:class:`~repro.system.pipeline.SystemReport` can show the outage
timeline, and counted through ``system.feed.<feed>.*`` metrics.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Optional

from ..obs import Registry


class DegradationManager:
    """Tracks per-feed liveness and the degraded-mode intervals.

    Parameters
    ----------
    feeds:
        The feed names to supervise (default: the two city feeds).
    threshold:
        Consecutive silent recognition steps before a feed is declared
        degraded (>= 1; 1 means a single empty step trips the breaker).
    metrics:
        Optional :class:`repro.obs.Registry` for the
        ``system.feed.<feed>.{silent_steps,outages,degraded}`` series.
    """

    def __init__(
        self,
        feeds: Iterable[str] = ("scats", "bus"),
        *,
        threshold: int = 2,
        metrics: Optional[Registry] = None,
    ):
        if threshold < 1:
            raise ValueError(
                f"threshold must be at least 1, got {threshold}"
            )
        self.feeds = tuple(feeds)
        self.threshold = threshold
        self.metrics = metrics
        self._silent: dict[str, int] = {feed: 0 for feed in self.feeds}
        self._degraded: set[str] = set()
        #: Feeds forced into degraded mode from outside the arrival
        #: accounting (a shard whose restart budget is exhausted);
        #: excluded from per-step liveness tracking since no arrival
        #: can ever close them.
        self._forced: set[str] = set()
        #: feed -> [(start, end-or-None), ...]; ``None`` means the
        #: outage was still open when the run finished.
        self.intervals: dict[str, list[tuple[int, Optional[int]]]] = {
            feed: [] for feed in self.feeds
        }

    # ------------------------------------------------------------------
    @property
    def degraded_feeds(self) -> frozenset[str]:
        """The feeds currently in degraded mode."""
        return frozenset(self._degraded)

    # ------------------------------------------------------------------
    def observe(self, q: int, arrivals: Mapping[str, int]) -> frozenset[str]:
        """Account one recognition step's per-feed arrival counts.

        ``arrivals`` maps feed name to the number of SDEs that *arrived*
        in the step ending at ``q``; missing feeds count as silent.
        Returns the degraded set after the update.
        """
        for feed in self.feeds:
            if feed in self._forced:
                continue
            count = arrivals.get(feed, 0)
            if count > 0:
                if feed in self._degraded:
                    self._degraded.discard(feed)
                    start, _ = self.intervals[feed][-1]
                    self.intervals[feed][-1] = (start, q)
                    self._count(feed, "recoveries")
                self._silent[feed] = 0
            else:
                self._silent[feed] += 1
                self._count(feed, "silent_steps")
                if (
                    feed not in self._degraded
                    and self._silent[feed] >= self.threshold
                ):
                    self._degraded.add(feed)
                    self.intervals[feed].append((q, None))
                    self._count(feed, "outages")
            if self.metrics is not None:
                self.metrics.gauge(f"system.feed.{feed}.degraded").set(
                    1.0 if feed in self._degraded else 0.0
                )
        return self.degraded_feeds

    def force_outage(self, feed: str, q: int) -> None:
        """Declare ``feed`` degraded from outside the arrival
        accounting, permanently for this run.

        Used by the shard supervisor when a region's worker exhausts
        its restart budget: the pseudo-feed ``shard:<region>`` enters
        the outage timeline at ``q`` and never recovers (no arrival
        count is tracked for it), so the region's alerts stay
        suppressed while the surviving feeds keep their own breaker
        semantics.  Idempotent.
        """
        if feed not in self.feeds:
            self.feeds = self.feeds + (feed,)
            self._silent[feed] = 0
            self.intervals[feed] = []
        self._forced.add(feed)
        if feed in self._degraded:
            return
        self._degraded.add(feed)
        self.intervals[feed].append((q, None))
        self._count(feed, "outages")
        if self.metrics is not None:
            self.metrics.gauge(f"system.feed.{feed}.degraded").set(1.0)

    def finish(self) -> dict[str, list[tuple[int, Optional[int]]]]:
        """The outage timeline; still-open intervals keep ``end=None``."""
        return {
            feed: list(spans)
            for feed, spans in self.intervals.items()
            if spans
        }

    # -- durability ----------------------------------------------------
    # The manager is pickled wholesale inside pipeline checkpoints;
    # these JSON-able dicts are the explicit contract for what must
    # survive a restart: the per-feed silent-step counters, the set of
    # currently tripped breakers, and the outage timeline (including
    # still-open intervals, whose ``end`` is ``None`` until the feed
    # recovers).  Thresholds and the metrics registry are configuration
    # and are re-attached by the restoring pipeline.
    # ------------------------------------------------------------------
    def _count(self, feed: str, kind: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(f"system.feed.{feed}.{kind}").inc()


def describe_timeline(
    degraded: Mapping[str, list[tuple[int, Optional[int]]]]
) -> list[str]:
    """Human-readable one-liners for a report's degraded intervals."""
    lines = []
    for feed in sorted(degraded):
        for start, end in degraded[feed]:
            span = f"[{start}, {end}]" if end is not None else f"[{start}, end of run]"
            lines.append(f"feed {feed!r} degraded over {span}")
    return lines
