"""Cross-process supervision of shard workers.

Restart budgets and capped exponential backoff across process
boundaries.  The runtime reports worker deaths and heartbeats here;
the supervisor decides whether a dead shard may restart (budget not
yet exhausted), how long to back off first, and when to give up — at
which point the region is declared failed and the
:class:`~repro.system.degradation.DegradationManager` is told to treat
``shard:<region>`` as a forced outage so the region's alerts are
suppressed while sibling shards keep flowing.

A shard's breaker is a count: it is open once the shard has died more
than ``max_restarts`` times, and it never closes again within the run —
a worker that exhausted its restart budget has no independent recovery
path.

Everything is counted through the coordinator's registry under the
``shard.*`` namespace — see ``docs/observability.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..obs import Registry

__all__ = ["ShardSupervisor"]


@dataclass
class ShardSupervisor:
    """Liveness, restart budgets and breakers for all shard workers.

    Parameters
    ----------
    max_restarts:
        Restarts allowed per shard within one run; the death after the
        budget is spent fails the shard.
    backoff_base_s / backoff_cap_s:
        Capped exponential backoff actually slept before restart ``k``:
        ``min(cap, base * 2**(k-1))`` — real seconds here, not
        event-time accounting, because a worker restart is a real
        wall-clock affair.
    liveness_timeout_s:
        Seconds without any message (heartbeats included) before a
        live-looking worker is declared dead.
    metrics:
        Registry for the ``shard.*`` series.
    degradation:
        Optional :class:`~repro.system.degradation.DegradationManager`;
        a failed region is forced into its outage timeline as feed
        ``shard:<region>``.
    """

    max_restarts: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    liveness_timeout_s: float = 30.0
    metrics: Optional[Registry] = None
    degradation: Optional[object] = None
    deaths: dict[str, int] = field(default_factory=dict)
    restarts: dict[str, int] = field(default_factory=dict)
    #: Chronological restart/failure events, surfaced as
    #: ``SystemReport.shard_events`` and in the HTML outage timeline.
    events: list[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must not be negative")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff values must not be negative")
        if self.liveness_timeout_s <= 0:
            raise ValueError("liveness_timeout_s must be positive")

    # ------------------------------------------------------------------
    def is_failed(self, region: str) -> bool:
        """Whether ``region`` died more often than its budget allows."""
        return self.deaths.get(region, 0) > self.max_restarts

    def record_death(
        self, region: str, step: int, q: int, reason: str
    ) -> bool:
        """Account one worker death; returns whether a restart is
        allowed (budget not exhausted)."""
        self.deaths[region] = self.deaths.get(region, 0) + 1
        self._count("shard.deaths")
        self._count(f"shard.{region}.deaths")
        if not self.is_failed(region):
            return True
        self.events.append(
            {
                "event": "failed",
                "region": region,
                "step": step,
                "q": q,
                "reason": reason,
                "deaths": self.deaths[region],
            }
        )
        self._count("shard.failed")
        if self.degradation is not None:
            self.degradation.force_outage(f"shard:{region}", q)
        self._record_breaker(region)
        return False

    def backoff_s(self, region: str) -> float:
        """Seconds to sleep before this shard's next restart."""
        attempt = max(1, self.deaths.get(region, 1))
        seconds = min(
            self.backoff_cap_s, self.backoff_base_s * (2 ** (attempt - 1))
        )
        if self.metrics is not None:
            self.metrics.timing("shard.restart.backoff_s").observe(seconds)
        return seconds

    def record_restart(self, region: str, step: int, q: int) -> None:
        """Account one successful restart-from-checkpoint."""
        self.restarts[region] = self.restarts.get(region, 0) + 1
        self._count("shard.restarts")
        self._count(f"shard.{region}.restarts")
        self.events.append(
            {
                "event": "restart",
                "region": region,
                "step": step,
                "q": q,
                "attempt": self.restarts[region],
            }
        )

    def observe_heartbeat_age(self, region: str, age_s: float) -> None:
        """Track how stale each worker's last sign of life is."""
        if self.metrics is not None:
            self.metrics.gauge(f"shard.{region}.heartbeat_age_s").set(age_s)
            self.metrics.timing("shard.heartbeat_age_s").observe(age_s)

    def record_breaker_states(self) -> None:
        """Export the breaker state of every shard that died as a gauge
        (0 closed, 1 open)."""
        for region in self.deaths:
            self._record_breaker(region)

    # ------------------------------------------------------------------
    def _record_breaker(self, region: str) -> None:
        if self.metrics is not None:
            self.metrics.gauge(f"shard.breaker.{region}.state").set(
                float(self.is_failed(region))
            )

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()
