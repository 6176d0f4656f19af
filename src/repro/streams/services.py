"""Services: named shared components of a Streams application.

"Streams allows for the specification of services, i.e. sets of
functions that are accessible throughout the stream processing
application" (paper, Section 3).  The traffic-modelling procedure, for
instance, is "wrapped as a Streams service".  A service here is any
Python object registered under a name; the runtime starts and stops it
with the graph.
"""

from __future__ import annotations

from typing import Any


class ServiceRegistry:
    """A simple name → object registry with lifecycle hooks.

    Objects exposing ``start()`` / ``stop()`` receive those calls when
    the runtime starts and finishes; others are used as-is.
    """

    def __init__(self) -> None:
        self._services: dict[str, Any] = {}

    def register(self, name: str, service: Any) -> None:
        """Register ``service`` under ``name`` (names are unique)."""
        if name in self._services:
            raise ValueError(f"service already registered: {name!r}")
        self._services[name] = service

    def start_all(self) -> None:
        """Invoke ``start()`` on every service that defines it."""
        for service in self._services.values():
            start = getattr(service, "start", None)
            if callable(start):
                start()

    def stop_all(self) -> None:
        """Invoke ``stop()`` on every service that defines it."""
        for service in self._services.values():
            stop = getattr(service, "stop", None)
            if callable(stop):
                stop()
