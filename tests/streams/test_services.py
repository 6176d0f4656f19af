"""Tests for the service registry."""

import pytest

from repro.streams import ServiceRegistry


class TestServiceRegistry:
    def test_duplicate_registration_rejected(self):
        registry = ServiceRegistry()
        registry.register("svc", object())
        with pytest.raises(ValueError, match="already registered"):
            registry.register("svc", object())

    def test_lifecycle_hooks_optional(self):
        class WithHooks:
            def __init__(self):
                self.events = []

            def start(self):
                self.events.append("start")

            def stop(self):
                self.events.append("stop")

        registry = ServiceRegistry()
        hooked = WithHooks()
        registry.register("hooked", hooked)
        registry.register("plain", object())  # no hooks: must not crash
        registry.start_all()
        registry.stop_all()
        assert hooked.events == ["start", "stop"]

    def test_non_callable_start_ignored(self):
        class Odd:
            start = "not callable"

        registry = ServiceRegistry()
        registry.register("odd", Odd())
        registry.start_all()  # must not raise
