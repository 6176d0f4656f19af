"""Tests for the RTEC engine: windowing, inertia, delayed arrivals."""

import pytest

from repro.core.events import Event, Occurrence
from repro.core.intervals import IntervalList
from repro.core.rtec import RTEC, RecognitionLog
from repro.core.rules import (
    FunctionalEvent,
    FunctionalSimpleFluent,
    FunctionalStaticFluent,
)


def _switch_fluent(name="power"):
    """A fluent initiated by 'on' events and terminated by 'off'."""
    return FunctionalSimpleFluent(
        name,
        initiated=lambda ctx: [
            ((e["id"],), e.time) for e in ctx.events("on")
        ],
        terminated=lambda ctx: [
            ((e["id"],), e.time) for e in ctx.events("off")
        ],
    )


def _echo_event(name="echo", source="ping"):
    """A derived event mirroring every input event of type `source`."""
    return FunctionalEvent(
        name,
        lambda ctx: [
            Occurrence(name, (e["id"],), e.time) for e in ctx.events(source)
        ],
    )


class TestEngineValidation:
    def test_bad_window(self):
        with pytest.raises(ValueError):
            RTEC([], window=0, step=1)

    def test_step_larger_than_window(self):
        with pytest.raises(ValueError, match="step"):
            RTEC([], window=5, step=10)

    def test_query_times_must_increase(self):
        eng = RTEC([], window=10, step=5)
        eng.query(10)
        with pytest.raises(ValueError, match="increasing"):
            eng.query(10)

    def test_conflicting_column_layouts_are_refused_at_construction(self):
        # Two compiled rules grouping one type's rows two ways: one
        # store cannot serve both (this used to downgrade the type,
        # silently, to a per-query rebuild from records).
        from repro.core.columns import ColumnSpec
        from repro.core.compiled import CompiledRule

        class Compilable(FunctionalEvent):
            def __init__(self, name, token):
                super().__init__(name, lambda ctx: ())
                self.token = token

            def compiled(self, params):
                rule = CompiledRule()
                rule.columns = {("event", "ping"): ColumnSpec(token=self.token)}
                return rule

        RTEC([Compilable("a", ("id",)), Compilable("b", ("id",))],
             window=10, step=5)
        with pytest.raises(ValueError, match="conflicting grounding-token"):
            RTEC([Compilable("a", ("id",)), Compilable("b", ("bus",))],
                 window=10, step=5)
        # The reference engine compiles nothing but refuses the same
        # rule set: what the engine cannot run needs no oracle.
        from repro.core.reference import ReferenceRTEC

        with pytest.raises(ValueError, match="conflicting grounding-token"):
            ReferenceRTEC(
                [Compilable("a", ("id",)), Compilable("b", ("bus",))],
                window=10, step=5,
            )

    def test_negative_event_time_rejected(self):
        # A negative stamp is always a mediator bug (or an injected
        # corruption); accepting it would seed windows before time 0.
        eng = RTEC([_switch_fluent()], window=10, step=5)
        with pytest.raises(ValueError, match="negative"):
            eng.feed([Event("on", -5, {"id": "x"})])

    def test_negative_fact_time_rejected(self):
        from repro.core.events import FluentFact

        eng = RTEC([_switch_fluent()], window=10, step=5)
        with pytest.raises(ValueError, match="negative"):
            eng.feed([], facts=[FluentFact("gps", ("b",), {"v": 1}, -1)])

    def test_valid_events_before_the_bad_one_are_kept(self):
        # feed() appends as it validates; the good prefix must still
        # be queryable after the rejection.
        eng = RTEC([_switch_fluent()], window=100, step=100)
        with pytest.raises(ValueError, match="negative"):
            eng.feed([
                Event("on", 10, {"id": "x"}),
                Event("on", -1, {"id": "y"}),
            ])
        snapshot = eng.query(100)
        assert snapshot.holds_at("power", ("x",), 50)


    def test_a_mixed_schema_keeps_the_good_prefix(self):
        # The schema check runs record by record beside the time check:
        # what preceded the refused record stays fed, and an earlier
        # negative time is the error reported.
        eng = RTEC([_switch_fluent()], window=100, step=100)
        with pytest.raises(ValueError, match="event type 'on' mixes schemas"):
            eng.feed([
                Event("on", 10, {"id": "x"}),
                Event("other", 20, {"level": 3, "id": "z"}),
                Event("on", 30, {"name": "y"}),
                Event("on", 40, {"id": "w"}),
            ])
        snapshot = eng.query(100)
        assert snapshot.holds_at("power", ("x",), 50)
        assert not snapshot.holds_at("power", ("w",), 50)
        with pytest.raises(ValueError, match="negative"):
            eng.feed([
                Event("on", 110, {"id": "v"}),
                Event("on", -1, {"id": "u"}),
                Event("on", 120, {"name": "t"}),
            ])
        assert eng.query(200).holds_at("power", ("v",), 150)

    def test_a_mixed_fact_schema_keeps_the_good_prefix(self):
        from repro.core.events import FluentFact

        eng = RTEC([_switch_fluent()], window=100, step=100)
        with pytest.raises(ValueError, match="fluent 'noisy' mixes schemas"):
            eng.feed(
                [Event("on", 10, {"id": "x"})],
                [
                    FluentFact("noisy", ("x",), True, 10),
                    FluentFact("noisy", ("x", 1), True, 20),
                ],
            )
        assert eng.query(100).holds_at("power", ("x",), 50)

class TestSimpleFluentRecognition:
    def test_basic_episode(self):
        eng = RTEC([_switch_fluent()], window=100, step=100)
        eng.feed([
            Event("on", 10, {"id": "x"}),
            Event("off", 40, {"id": "x"}),
        ])
        snap = eng.query(100)
        assert snap.intervals("power", ("x",)).intervals == ((11, 41),)

    def test_ongoing_episode_is_open(self):
        eng = RTEC([_switch_fluent()], window=100, step=100)
        eng.feed([Event("on", 10, {"id": "x"})])
        snap = eng.query(100)
        assert snap.intervals("power", ("x",)).intervals == ((11, None),)

    def test_inertia_across_windows(self):
        eng = RTEC([_switch_fluent()], window=50, step=50)
        eng.feed([Event("on", 10, {"id": "x"})])
        eng.query(50)
        # No events at all in the second window; the fluent persists
        # and the episode keeps its historical start (interval
        # retention across windows).
        snap = eng.query(100)
        assert snap.holds_at("power", ("x",), 75)
        assert snap.intervals("power", ("x",)).intervals == ((11, None),)

    def test_an_unchanged_grounding_keeps_its_intervals_object(self):
        # The run's snapshots share the intervals of a grounding that
        # did not change rather than each retaining an equal copy.
        eng = RTEC([_switch_fluent()], window=100, step=50)
        eng.feed([Event("on", 10, {"id": "x"}), Event("on", 20, {"id": "y"})])
        first = eng.query(50).fluents["power"]
        eng.feed([Event("off", 70, {"id": "y"})])
        second = eng.query(100).fluents["power"]
        assert second == {
            ("x",): first[("x",)], ("y",): IntervalList([(21, 71)])
        }
        assert second[("x",)] is first[("x",)]

    def test_inertia_then_termination_in_later_window(self):
        eng = RTEC([_switch_fluent()], window=50, step=50)
        eng.feed([Event("on", 10, {"id": "x"})])
        eng.query(50)
        eng.feed([Event("off", 70, {"id": "x"})])
        snap = eng.query(100)
        assert snap.intervals("power", ("x",)).intervals == ((11, 71),)

    def test_initiation_at_query_time_not_lost(self):
        # An event at exactly t = Q takes effect at Q+1, outside the
        # current window's span; the next window must still see the
        # fluent holding (seeding happens at window_start + 1).
        eng = RTEC([_switch_fluent()], window=50, step=50)
        eng.feed([Event("on", 50, {"id": "x"})])
        eng.query(50)
        snap = eng.query(100)
        assert snap.intervals("power", ("x",)).intervals == ((51, None),)

    def test_termination_at_query_time_not_lost(self):
        eng = RTEC([_switch_fluent()], window=50, step=50)
        eng.feed([
            Event("on", 10, {"id": "x"}),
            Event("off", 50, {"id": "x"}),
        ])
        eng.query(50)
        snap = eng.query(100)
        assert not snap.intervals("power", ("x",))

    def test_no_inertia_without_initiation(self):
        eng = RTEC([_switch_fluent()], window=50, step=50)
        eng.feed([Event("off", 10, {"id": "x"})])
        snap = eng.query(50)
        assert snap.intervals("power", ("x",)) == IntervalList()

    def test_multiple_groundings_independent(self):
        eng = RTEC([_switch_fluent()], window=100, step=100)
        eng.feed([
            Event("on", 10, {"id": "x"}),
            Event("on", 20, {"id": "y"}),
            Event("off", 30, {"id": "x"}),
        ])
        snap = eng.query(100)
        assert snap.intervals("power", ("x",)).intervals == ((11, 31),)
        assert snap.intervals("power", ("y",)).intervals == ((21, None),)


class TestWindowing:
    def test_events_outside_window_discarded(self):
        eng = RTEC([_echo_event()], window=50, step=50)
        eng.feed([
            Event("ping", 10, {"id": "early"}),
            Event("ping", 80, {"id": "late"}),
        ])
        snap = eng.query(100)  # window (50, 100]
        ids = [o.key[0] for o in snap.all_occurrences("echo")]
        assert ids == ["late"]

    def test_event_not_yet_arrived_is_invisible(self):
        eng = RTEC([_echo_event()], window=100, step=50)
        eng.feed([Event("ping", 30, {"id": "slow"}, arrival=70)])
        snap = eng.query(50)
        assert snap.all_occurrences("echo") == []

    def test_delayed_event_caught_when_window_exceeds_step(self):
        # The paper's Figure 2: with WM > step, an SDE occurring before
        # Q_{i-1} but arriving after it is considered at Q_i.
        eng = RTEC([_echo_event()], window=100, step=50)
        eng.feed([Event("ping", 30, {"id": "slow"}, arrival=70)])
        eng.query(50)
        snap = eng.query(100)  # window (0, 100] now includes t=30
        ids = [o.key[0] for o in snap.all_occurrences("echo")]
        assert ids == ["slow"]

    def test_delayed_event_lost_when_window_equals_step(self):
        eng = RTEC([_echo_event()], window=50, step=50)
        eng.feed([Event("ping", 30, {"id": "slow"}, arrival=70)])
        eng.query(50)
        snap = eng.query(100)  # window (50, 100] no longer covers t=30
        assert snap.all_occurrences("echo") == []

    def test_n_events_counts_window_contents(self):
        eng = RTEC([_echo_event()], window=50, step=50)
        eng.feed([Event("ping", t, {"id": str(t)}) for t in (10, 20, 60, 70)])
        assert eng.query(50).n_events == 2
        assert eng.query(100).n_events == 2

    def test_feed_after_query_is_accepted(self):
        eng = RTEC([_echo_event()], window=50, step=50)
        eng.feed([Event("ping", 10, {"id": "a"})])
        eng.query(50)
        eng.feed([Event("ping", 60, {"id": "b"})])
        snap = eng.query(100)
        assert [o.key[0] for o in snap.all_occurrences("echo")] == ["b"]

    def test_unsorted_feed(self):
        eng = RTEC([_echo_event()], window=100, step=100)
        eng.feed([
            Event("ping", 50, {"id": "b"}),
            Event("ping", 10, {"id": "a"}),
        ])
        snap = eng.query(100)
        assert [o.key[0] for o in snap.all_occurrences("echo")] == ["a", "b"]

    def test_run_generates_all_query_times(self):
        eng = RTEC([_echo_event()], window=20, step=10)
        snaps = list(eng.run(45))
        assert [s.query_time for s in snaps] == [10, 20, 30, 40]
        # Continuation picks up where run() stopped.
        more = list(eng.run(60))
        assert [s.query_time for s in more] == [50, 60]


class TestStaticFluents:
    def test_static_fluent_sees_lower_stratum(self):
        power = _switch_fluent()
        inverse = FunctionalStaticFluent(
            "dark",
            lambda ctx: {
                key: ivs.complement(ctx.window_start, ctx.window_end)
                for key, ivs in ctx.fluent("power").items()
            },
            depends_on=("power",),
        )
        eng = RTEC([inverse, power], window=100, step=100)
        eng.feed([
            Event("on", 10, {"id": "x"}),
            Event("off", 40, {"id": "x"}),
        ])
        snap = eng.query(100)
        assert snap.intervals("dark", ("x",)).intervals == ((0, 11), (41, 100))


class TestRecognitionLog:
    def test_occurrences_deduplicated_across_windows(self):
        eng = RTEC([_echo_event()], window=100, step=50)
        eng.feed([Event("ping", 40, {"id": "a"})])
        log = RecognitionLog()
        fresh1 = log.add(eng.query(50))
        fresh2 = log.add(eng.query(100))  # same occurrence still in window
        assert len(fresh1.of_type("echo")) == 1
        assert len(fresh2.of_type("echo")) == 0

    def test_episodes_deduplicated_by_start(self):
        eng = RTEC([_switch_fluent()], window=100, step=50)
        eng.feed([Event("on", 10, {"id": "x"})])
        log = RecognitionLog()
        fresh1 = log.add(eng.query(50))
        fresh2 = log.add(eng.query(100))
        assert len(fresh1.episodes_of("power")) == 1
        assert len(fresh2.episodes_of("power")) == 0

    def test_elapsed_accounting(self):
        eng = RTEC([_echo_event()], window=100, step=50)
        log = RecognitionLog()
        log.add(eng.query(50))
        log.add(eng.query(100))
        assert log.total_elapsed >= 0.0
        assert log.mean_elapsed == pytest.approx(log.total_elapsed / 2)
        assert RecognitionLog().mean_elapsed == 0.0


class TestStateInspection:
    def test_cached_intervals_between_queries(self):
        eng = RTEC([_switch_fluent()], window=100, step=50)
        eng.feed([Event("on", 10, {"id": "x"})])
        eng.query(50)
        assert eng.cached_intervals("power", ("x",)).holds_at(30)
        assert eng.cached_intervals("power", ("y",)) == IntervalList()

    def test_currently_holds(self):
        eng = RTEC([_switch_fluent()], window=100, step=50)
        assert not eng.currently_holds("power", ("x",))
        eng.feed([
            Event("on", 10, {"id": "x"}),
            Event("off", 40, {"id": "y"}),
        ])
        eng.query(50)
        assert eng.currently_holds("power", ("x",))
        assert not eng.currently_holds("power", ("y",))
