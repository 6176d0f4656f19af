"""Behavioural tests of the engine's input bookkeeping.

The golden-trace and fault-parity suites prove the engine
*recognises* exactly what the reference engine does; this module
pins the counting around it: ``n_new_events`` counts each SDE exactly
once across a run even though overlapping windows consider the same
SDE repeatedly (``n_events`` keeps the per-window semantics), and the
pipeline's ``process.cep-<region>.items`` throughput counter is fed
from it — the satellite fix for the old overlap double-count.
"""

from collections.abc import Iterable

from repro.core import RTEC, Event
from repro.core.events import Occurrence
from repro.core.reference import ReferenceRTEC
from repro.core.rules import DerivedEvent, RuleContext
from repro.dublin import DublinScenario, ScenarioConfig
from repro.system import SystemConfig, UrbanTrafficSystem


class Echo(DerivedEvent):
    """One occurrence per ``ping`` SDE, at the SDE's time."""

    def __init__(self):
        super().__init__("echo", depends_on=())

    def occurrences(self, ctx: RuleContext) -> Iterable[Occurrence]:
        for ev in ctx.events("ping"):
            yield Occurrence("echo", (ev["id"],), ev.time, {"id": ev["id"]})


def ping(t, ident="a", arrival=None):
    return Event("ping", t, {"id": ident}, arrival=arrival)


def make_engine(engine_class=RTEC, **kwargs):
    kwargs.setdefault("window", 100)
    kwargs.setdefault("step", 25)
    return engine_class(
        [kwargs.pop("definition", Echo())], params={}, **kwargs
    )


class TestNewEventCounting:
    def test_each_sde_counted_once_across_overlapping_windows(self):
        engine = make_engine()
        events = [ping(t, ident=str(t)) for t in range(10, 100, 10)]
        engine.feed(events)
        snapshots = list(engine.run(100))
        assert sum(s.n_new_events for s in snapshots) == len(events)
        # The per-window count still sees the overlap repeatedly.
        assert sum(s.n_events for s in snapshots) > len(events)

    def test_legacy_mode_agrees(self):
        """The reference engine counts new SDEs as the engine does."""
        events = [ping(t, ident=str(t)) for t in range(10, 100, 10)]
        per_query = {}
        for engine_class in (RTEC, ReferenceRTEC):
            engine = make_engine(engine_class)
            engine.feed(events)
            per_query[engine_class] = [
                s.n_new_events for s in engine.run(100)
            ]
        assert per_query[RTEC] == per_query[ReferenceRTEC]

    def test_delayed_sde_counted_when_it_arrives(self):
        engine = make_engine()
        engine.feed([ping(10, arrival=40)])
        first = engine.query(25)
        second = engine.query(50)
        assert first.n_new_events == 0
        assert second.n_new_events == 1
        # Later queries still *consider* it, but never re-count it.
        third = engine.query(75)
        assert third.n_events == 1
        assert third.n_new_events == 0


class TestPipelineMetrics:
    def test_items_counter_has_no_overlap_double_count(self):
        scenario = DublinScenario(
            ScenarioConfig(
                seed=5,
                rows=6,
                cols=6,
                n_intersections=8,
                n_buses=6,
                n_lines=2,
                n_incidents=2,
                incident_window=(0, 1800),
            )
        )
        config = SystemConfig(window=1200, step=300, crowd_enabled=False)
        system = UrbanTrafficSystem(scenario, config)
        report = system.run(0, 1800)
        items = sum(
            value
            for name, value in report.metrics["counters"].items()
            if name.startswith("process.cep-") and name.endswith(".items")
        )
        snapshots = [
            s for log in report.logs.values() for s in log.snapshots
        ]
        new = sum(s.n_new_events for s in snapshots)
        considered = sum(s.n_events for s in snapshots)
        assert items == new
        # The regression being fixed: counting the window contents
        # (``n_events``) would have inflated ``.items`` by the overlap.
        assert considered > new > 0
