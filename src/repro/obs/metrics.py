"""Lightweight runtime metrics: counters, gauges and timing histograms.

The paper's evaluation (Figures 4 and 6) is built on two operational
questions — "how long does a recognition/query step take?" and "how
much data moves through each component?".  This module gives every
subsystem a uniform way to answer them at run time: a
:class:`Registry` hands out named :class:`Counter`, :class:`Gauge` and
:class:`Timing` instruments, and exports the whole collection as a
plain JSON-able dict (``repro-traffic metrics`` and
``SystemReport.metrics`` are thin views over it).

Everything is dependency-free and cheap enough to leave enabled: a
counter increment is one integer add, a timing observation updates four
scalars.  Instruments are created on first use, so wiring code never
has to pre-declare names.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Iterator, Mapping, Optional, Sequence


class Counter:
    """A monotonically increasing integer (items seen, queries run)."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0):
        self.value = value

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must not be negative) to the counter."""
        if n < 0:
            raise ValueError("counters only go up; use a Gauge instead")
        self.value += n


class Gauge:
    """A point-in-time scalar (coverage fraction, items per second)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0):
        self.value = value

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        self.value = float(value)


class Timing:
    """A streaming summary of duration observations (seconds).

    Keeps count/total/min/max — enough for means and extremes without
    retaining samples, so it is safe on hot paths.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(
        self,
        count: int = 0,
        total: float = 0.0,
        min: Optional[float] = None,
        max: Optional[float] = None,
    ):
        self.count = count
        self.total = total
        self.min = min
        self.max = max

    def observe(self, seconds: float) -> None:
        """Record one duration."""
        seconds = float(seconds)
        self.count += 1
        self.total += seconds
        if self.min is None or seconds < self.min:
            self.min = seconds
        if self.max is None or seconds > self.max:
            self.max = seconds

    def observe_many(self, values: Sequence[float]) -> None:
        """Record several durations at once: the summary that
        :meth:`observe` on each in turn gives when their sum is exact
        in floating point (integer seconds, as injected delays are)."""
        if not values:
            return
        self.count += len(values)
        self.total += float(sum(values))
        low, high = float(min(values)), float(max(values))
        if self.min is None or low < self.min:
            self.min = low
        if self.max is None or high > self.max:
            self.max = high

    @contextmanager
    def time(self) -> Iterator[None]:
        """Context manager observing the wall time of its block."""
        t0 = perf_counter()
        try:
            yield
        finally:
            self.observe(perf_counter() - t0)

    @property
    def mean(self) -> float:
        """Mean observed duration (0.0 before any observation)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def to_dict(self) -> dict[str, Any]:
        """Summary dict (count/total/min/max/mean), JSON-able."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Timing":
        return cls(
            count=int(data.get("count", 0)),
            total=float(data.get("total", 0.0)),
            min=data.get("min"),
            max=data.get("max"),
        )


class Registry:
    """A named collection of instruments with JSON import/export.

    Names are free-form dotted paths (``streams.process.cep-north.seconds``);
    the dots are convention only — the registry does not build a tree.
    Instruments are created on first access, so the registry doubles as
    the declaration point.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._timings: dict[str, Timing] = {}

    # -- instrument access -------------------------------------------------
    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        return gauge

    def timing(self, name: str) -> Timing:
        """Get or create the timing histogram ``name``."""
        timing = self._timings.get(name)
        if timing is None:
            timing = self._timings[name] = Timing()
        return timing

    # -- introspection -----------------------------------------------------
    def counters(self) -> dict[str, int]:
        """Counter values by name (a copy)."""
        return {name: c.value for name, c in sorted(self._counters.items())}

    def gauges(self) -> dict[str, float]:
        """Gauge values by name (a copy)."""
        return {name: g.value for name, g in sorted(self._gauges.items())}

    def timings(self) -> dict[str, Timing]:
        """Timing instruments by name (the live objects)."""
        return dict(sorted(self._timings.items()))

    # -- merge / export ----------------------------------------------------
    def merge(self, other: "Registry", *, prefix: str = "") -> None:
        """Fold another registry in: counters and timings add up,
        gauges take the other registry's (newer) value.

        ``prefix`` namespaces every incoming instrument (e.g.
        ``prefix="shard.north."``), so merging several shard registries
        aggregates them side by side instead of overwriting each other.
        """
        for name, counter in other._counters.items():
            self.counter(prefix + name).inc(counter.value)
        for name, gauge in other._gauges.items():
            self.gauge(prefix + name).set(gauge.value)
        for name, timing in other._timings.items():
            mine = self.timing(prefix + name)
            mine.count += timing.count
            mine.total += timing.total
            for bound in (timing.min, timing.max):
                if bound is None:
                    continue
                if mine.min is None or bound < mine.min:
                    mine.min = bound
                if mine.max is None or bound > mine.max:
                    mine.max = bound

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict export: ``{"counters": ..., "gauges": ...,
        "timings": ...}`` with timings expanded to summary dicts."""
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "timings": {
                name: t.to_dict() for name, t in sorted(self._timings.items())
            },
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """The :meth:`to_dict` export as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write_json(self, path, indent: Optional[int] = 2) -> None:
        """Write the :meth:`to_json` document to ``path`` atomically
        (a crash mid-export never leaves a truncated file)."""
        from ..ioutils import atomic_write_text

        atomic_write_text(path, self.to_json(indent=indent) + "\n")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Registry":
        """Rebuild a registry from a :meth:`to_dict` export."""
        registry = cls()
        for name, value in data.get("counters", {}).items():
            registry._counters[name] = Counter(int(value))
        for name, value in data.get("gauges", {}).items():
            registry._gauges[name] = Gauge(float(value))
        for name, summary in data.get("timings", {}).items():
            registry._timings[name] = Timing.from_dict(summary)
        return registry
