"""Tests for the metrics instruments and the registry export."""

import json

import pytest

from repro.obs import Counter, Gauge, Registry, Timing


class TestInstruments:
    def test_counter_increments(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter().inc(-1)

    def test_gauge_overwrites(self):
        g = Gauge()
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5

    def test_timing_summary(self):
        t = Timing()
        for s in (0.1, 0.3, 0.2):
            t.observe(s)
        assert t.count == 3
        assert t.total == pytest.approx(0.6)
        assert t.min == pytest.approx(0.1)
        assert t.max == pytest.approx(0.3)
        assert t.mean == pytest.approx(0.2)

    def test_timing_empty_mean(self):
        assert Timing().mean == 0.0

    def test_timing_context_manager(self):
        t = Timing()
        with t.time():
            pass
        assert t.count == 1
        assert t.total >= 0.0


class TestRegistry:
    def test_get_or_create_is_stable(self):
        r = Registry()
        assert r.counter("a") is r.counter("a")
        assert r.gauge("b") is r.gauge("b")
        assert r.timing("c") is r.timing("c")
        assert sorted(r.to_dict()["counters"]) == ["a"]

    def test_json_round_trip(self):
        r = Registry()
        r.counter("streams.items.ingested").inc(42)
        r.gauge("flow.coverage").set(0.75)
        t = r.timing("process.cep-north.seconds")
        t.observe(0.25)
        t.observe(0.05)

        restored = Registry.from_dict(json.loads(r.to_json()))
        assert restored.to_dict() == r.to_dict()
        # The export is valid, plain JSON all the way down.
        parsed = json.loads(r.to_json(indent=2))
        assert parsed["counters"]["streams.items.ingested"] == 42
        assert parsed["timings"]["process.cep-north.seconds"]["count"] == 2

    def test_round_trip_preserves_untouched_instruments(self):
        r = Registry()
        r.counter("never.incremented")
        r.timing("never.observed")
        restored = Registry.from_dict(json.loads(r.to_json()))
        assert restored.counter("never.incremented").value == 0
        assert restored.timing("never.observed").count == 0
        assert restored.to_dict() == r.to_dict()

    def test_merge(self):
        a = Registry()
        a.counter("n").inc(2)
        a.timing("t").observe(0.1)
        a.gauge("g").set(1.0)
        b = Registry()
        b.counter("n").inc(3)
        b.timing("t").observe(0.4)
        b.gauge("g").set(2.0)

        a.merge(b)
        assert a.counter("n").value == 5
        assert a.timing("t").count == 2
        assert a.timing("t").total == pytest.approx(0.5)
        assert a.timing("t").min == pytest.approx(0.1)
        assert a.timing("t").max == pytest.approx(0.4)
        assert a.gauge("g").value == 2.0


class TestAtomicExport:
    def test_write_json_round_trips(self, tmp_path):
        registry = Registry()
        registry.counter("a").inc(3)
        registry.gauge("g").set(1.5)
        path = tmp_path / "metrics.json"
        registry.write_json(path)
        revived = Registry.from_dict(json.loads(path.read_text()))
        assert revived.counters() == {"a": 3}
        assert revived.gauges() == {"g": 1.5}

    def test_write_json_leaves_no_tmp_files(self, tmp_path):
        registry = Registry()
        registry.counter("a").inc()
        path = tmp_path / "metrics.json"
        registry.write_json(path)
        registry.write_json(path)  # overwrite is atomic too
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.json"]
