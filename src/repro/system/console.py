"""Operator console: the system's output surface.

"The system helps an operator manage the traffic situation, by
integrating available traffic information from the different sources,
which can then be used to issue alerts ... An important requirement is
to have a simple, intuitive interactive map to present all traffic
information and alerts" (paper, Section 2).  In a terminal
reproduction the console is an alert log plus the ASCII city map of
:func:`repro.traffic_model.render_flow_map`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class Alert:
    """One operator alert."""

    time: int
    kind: str
    location: str
    message: str
    region: Optional[str] = None

    def format(self) -> str:
        """Render the alert as a console line."""
        hh, rem = divmod(self.time, 3600)
        mm, ss = divmod(rem, 60)
        region = f" [{self.region}]" if self.region else ""
        return (
            f"{hh:02d}:{mm:02d}:{ss:02d}{region} "
            f"{self.kind.upper():<22} {self.location}: {self.message}"
        )


class OperatorConsole:
    """Collects, counts and formats the alerts shown to city operators."""

    def __init__(self) -> None:
        self.alerts: list[Alert] = []

    def notify(
        self,
        time: int,
        kind: str,
        location: str,
        message: str,
        region: Optional[str] = None,
    ) -> Alert:
        """Record one alert and return it."""
        alert = Alert(
            time=time, kind=kind, location=location, message=message,
            region=region,
        )
        self.alerts.append(alert)
        return alert

    def counts(self) -> dict[str, int]:
        """Number of alerts per kind."""
        return dict(Counter(a.kind for a in self.alerts))

    def render(self, limit: Optional[int] = None) -> str:
        """The alert feed, newest last, optionally truncated to the
        ``limit`` most recent entries."""
        ordered = sorted(self.alerts, key=lambda a: a.time)
        if limit is not None:
            ordered = ordered[-limit:]
        return "\n".join(a.format() for a in ordered)

    def render_summary(self) -> str:
        """A per-kind summary block."""
        lines = ["operator console summary", "-" * 36]
        for kind, count in sorted(self.counts().items()):
            lines.append(f"{kind:<28} {count:>6}")
        lines.append(f"{'total':<28} {len(self.alerts):>6}")
        return "\n".join(lines)
