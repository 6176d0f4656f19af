"""Tests for processes, queues and the deterministic runtime."""

import pytest

from repro.streams import (
    Counter,
    Filter,
    Process,
    SetAttributes,
    Source,
    StreamRuntime,
    Tap,
    Topology,
    Transform,
    normalise_result,
)

from .helpers import Collect, make_item


def _items(values, source_time=0):
    return [make_item({"v": v}, time=source_time + i) for i, v in enumerate(values)]


class TestSource:
    def test_requires_time_stamp(self):
        with pytest.raises(ValueError, match="@time"):
            Source("s", [{"v": 1}])

    def test_sorts_by_arrival(self):
        items = [
            make_item({"v": "late"}, time=0, arrival=10),
            make_item({"v": "early"}, time=5),
        ]
        src = Source("s", items)
        assert [i["v"] for i in src] == ["early", "late"]

    def test_stamps_source_name(self):
        src = Source("bus", [make_item({"v": 1}, time=0)])
        assert next(iter(src))["@source"] == "bus"


class TestProcessors:
    def test_normalise_result(self):
        assert normalise_result(None) == []
        assert normalise_result({"a": 1}) == [{"a": 1}]
        assert normalise_result([{"a": 1}, {"b": 2}]) == [{"a": 1}, {"b": 2}]

    def test_filter(self):
        p = Filter(lambda item: item["v"] > 2)
        assert p.process({"v": 3}) == {"v": 3}
        assert p.process({"v": 1}) is None

    def test_transform_fan_out(self):
        p = Transform(lambda item: [dict(item), dict(item)])
        assert len(normalise_result(p.process({"v": 1}))) == 2

    def test_set_attributes(self):
        p = SetAttributes(region="north")
        assert p.process({"v": 1}) == {"v": 1, "region": "north"}

    def test_tap(self):
        seen = []
        p = Tap(seen.append)
        p.process({"v": 1})
        assert seen == [{"v": 1}]

    def test_counter(self):
        p = Counter(group_by="region")
        p.process({"region": "north"})
        p.process({"region": "north"})
        p.process({"region": "south"})
        assert p.total == 3
        assert p.per_group == {"north": 2, "south": 1}


class TestTopologyConstruction:
    def test_duplicate_source_rejected(self):
        topo = Topology()
        topo.add_source(Source("s", []))
        with pytest.raises(ValueError, match="duplicate source"):
            topo.add_source(Source("s", []))

    def test_duplicate_process_rejected(self):
        topo = Topology()
        topo.add_process(Process("p", input="s", processors=[Collect()]))
        with pytest.raises(ValueError, match="duplicate process"):
            topo.add_process(Process("p", input="s", processors=[Collect()]))

    def test_process_requires_processors(self):
        with pytest.raises(ValueError, match="at least one"):
            Process("p", input="s", processors=[])

    def test_unknown_input_caught_by_validate(self):
        topo = Topology()
        topo.add_process(Process("p", input="ghost", processors=[Collect()]))
        with pytest.raises(ValueError, match="unknown input"):
            topo.validate()

    def test_output_queue_auto_created(self):
        topo = Topology()
        topo.add_source(Source("s", []))
        topo.add_process(
            Process("p", input="s", processors=[Collect()], output="q")
        )
        assert "q" in topo.queues


class TestConsumerIndex:
    def test_validate_builds_index(self):
        topo = Topology()
        topo.add_source(Source("s", _items([1])))
        p1 = Process("a", input="s", processors=[Collect()])
        p2 = Process("b", input="s", processors=[Collect()])
        topo.add_process(p1)
        topo.add_process(p2)
        topo.validate()
        assert topo.consumers_of("s") == [p1, p2]
        assert topo.consumers_of("nothing-consumes-this") == []

    def test_index_rebuilt_after_graph_change(self):
        topo = Topology()
        topo.add_source(Source("s", _items([1])))
        topo.validate()
        assert topo.consumers_of("s") == []
        late = Process("late", input="s", processors=[Collect()])
        topo.add_process(late)
        # add_process invalidates; the next lookup rebuilds.
        assert topo.consumers_of("s") == [late]

    def test_lookup_without_validate_builds_lazily(self):
        topo = Topology()
        topo.add_source(Source("s", _items([1])))
        p = Process("p", input="s", processors=[Collect()])
        topo.add_process(p)
        assert topo.consumers_of("s") == [p]


class TestQueueSourceShadowing:
    """A process output named like a source must be rejected: both
    would resolve to the same consumer list, silently treating queue
    items as source items."""

    def test_validate_rejects_output_shadowing_source(self):
        topo = Topology()
        topo.add_source(Source("readings", _items([1])))
        topo.add_process(
            Process(
                "p", input="readings", processors=[Collect()],
                output="readings",
            )
        )
        with pytest.raises(ValueError, match="shadow"):
            topo.validate()

    def test_validate_rejects_source_added_after_process(self):
        topo = Topology()
        topo.add_process(
            Process("p", input="x", processors=[Collect()], output="late")
        )
        topo.add_source(Source("x", _items([1])))
        topo.add_source(Source("late", _items([1])))
        with pytest.raises(ValueError, match="shadow"):
            topo.validate()

    def test_runtime_refuses_to_run_shadowed_graph(self):
        topo = Topology()
        topo.add_source(Source("s", _items([1])))
        topo.add_process(
            Process("p", input="s", processors=[Collect()], output="s")
        )
        with pytest.raises(ValueError, match="shadow"):
            StreamRuntime(topo).run()


class TestRuntime:
    def test_processor_error_stops_the_run(self):
        def explode(item):
            if item["v"] == 2:
                raise ValueError("bad item 2")
            return item

        topo = Topology()
        topo.add_source(Source("s", _items([1, 2, 3])))
        sink = Collect()
        topo.add_process(
            Process("p", input="s", processors=[Transform(explode)],
                    output="q")
        )
        topo.add_process(Process("sink", input="q", processors=[sink]))
        with pytest.raises(ValueError, match="bad item 2"):
            StreamRuntime(topo).run()
        assert [i["v"] for i in sink.items] == [1]

    def test_linear_pipeline(self):
        topo = Topology()
        topo.add_source(Source("s", _items([1, 2, 3, 4])))
        sink = Collect()
        topo.add_process(
            Process(
                "p",
                input="s",
                processors=[Filter(lambda i: i["v"] % 2 == 0), sink],
            )
        )
        stats = StreamRuntime(topo).run()
        assert [i["v"] for i in sink.items] == [2, 4]
        assert stats.items_ingested == 4
        assert stats.per_process["p"] == (4, 2)

    def test_queue_connects_processes(self):
        topo = Topology()
        topo.add_source(Source("s", _items([1, 2])))
        sink = Collect()
        topo.add_process(
            Process(
                "up",
                input="s",
                processors=[SetAttributes(stage="one")],
                output="mid",
            )
        )
        topo.add_process(Process("down", input="mid", processors=[sink]))
        StreamRuntime(topo).run()
        assert [i["stage"] for i in sink.items] == ["one", "one"]

    def test_queue_retains_history(self):
        topo = Topology()
        topo.add_source(Source("s", _items([1, 2])))
        topo.add_process(
            Process("up", input="s", processors=[Collect()], output="out")
        )
        StreamRuntime(topo).run()
        assert len(topo.queues["out"]) == 2

    def test_queue_broadcasts_to_all_consumers(self):
        topo = Topology()
        topo.add_source(Source("s", _items([1])))
        a, b = Collect(), Collect()
        topo.add_process(
            Process("up", input="s", processors=[Tap(lambda i: None)],
                    output="mid")
        )
        topo.add_process(Process("left", input="mid", processors=[a]))
        topo.add_process(Process("right", input="mid", processors=[b]))
        StreamRuntime(topo).run()
        assert len(a.items) == 1
        assert len(b.items) == 1

    def test_consumers_get_independent_copies(self):
        topo = Topology()
        topo.add_source(Source("s", _items([1])))
        a = Collect()
        topo.add_process(
            Process("mutator", input="s",
                    processors=[SetAttributes(mutated=True)])
        )
        topo.add_process(Process("observer", input="s", processors=[a]))
        StreamRuntime(topo).run()
        assert "mutated" not in a.items[0]

    def test_arrival_order_interleaves_sources(self):
        topo = Topology()
        topo.add_source(
            Source("a", [make_item({"v": "a"}, time=t) for t in (0, 10)])
        )
        topo.add_source(
            Source("b", [make_item({"v": "b"}, time=5)])
        )
        order = []
        topo.add_process(
            Process("pa", input="a", processors=[Tap(lambda i: order.append(i["v"]))])
        )
        topo.add_process(
            Process("pb", input="b", processors=[Tap(lambda i: order.append(i["v"]))])
        )
        StreamRuntime(topo).run()
        assert order == ["a", "b", "a"]

    def test_queue_items_processed_before_later_source_items(self):
        topo = Topology()
        topo.add_source(
            Source("s", [make_item({"v": i}, time=i) for i in (0, 1)])
        )
        order = []
        topo.add_process(
            Process(
                "up",
                input="s",
                processors=[Tap(lambda i: order.append(("up", i["v"])))],
                output="mid",
            )
        )
        topo.add_process(
            Process(
                "down",
                input="mid",
                processors=[Tap(lambda i: order.append(("down", i["v"])))],
            )
        )
        StreamRuntime(topo).run()
        assert order == [("up", 0), ("down", 0), ("up", 1), ("down", 1)]

    def test_services_lifecycle(self):
        class Svc:
            def __init__(self):
                self.events = []

            def start(self):
                self.events.append("start")

            def stop(self):
                self.events.append("stop")

        topo = Topology()
        svc = Svc()
        topo.services.register("svc", svc)
        topo.add_source(Source("s", _items([1])))
        seen = []
        topo.add_process(
            Process("p", input="s",
                    processors=[Tap(lambda i: seen.append(list(svc.events)))])
        )
        StreamRuntime(topo).run()
        assert seen == [["start"]]
        assert svc.events == ["start", "stop"]
