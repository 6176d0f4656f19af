"""Tests for multi-valued fluents (full ``F = V`` semantics) and the
``initially`` predicate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RTEC, Event, FunctionalValuedFluent
from repro.core.intervals import EFFECT_DELAY
from repro.core.rules import RuleContext


def _traffic_light():
    """A valued fluent driven by 'set' events (value in the payload)
    and 'fault' events (explicit termination of the current colour)."""
    return FunctionalValuedFluent(
        "light",
        initiated=lambda ctx: [
            (("junction",), e["colour"], e.time) for e in ctx.events("set")
        ],
        terminated=lambda ctx: [
            (("junction",), e["colour"], e.time) for e in ctx.events("fault")
        ],
    )


def _engine(window=100, step=100, initially=None):
    return RTEC(
        [_traffic_light()], window=window, step=step, initially=initially
    )


def _set(t, colour):
    return Event("set", t, {"colour": colour})


def _fault(t, colour):
    return Event("fault", t, {"colour": colour})


class TestValuedFluentBasics:
    def test_single_value_holds(self):
        eng = _engine()
        eng.feed([_set(10, "green")])
        snap = eng.query(100)
        assert snap.intervals("light", ("junction", "green")).intervals == (
            (11, None),
        )

    def test_new_value_terminates_old(self):
        eng = _engine()
        eng.feed([_set(10, "green"), _set(40, "red")])
        snap = eng.query(100)
        assert snap.intervals("light", ("junction", "green")).intervals == (
            (11, 41),
        )
        assert snap.intervals("light", ("junction", "red")).intervals == (
            (41, None),
        )

    def test_explicit_termination_clears_value(self):
        eng = _engine()
        eng.feed([_set(10, "green"), _fault(40, "green")])
        snap = eng.query(100)
        assert snap.intervals("light", ("junction", "green")).intervals == (
            (11, 41),
        )
        assert not snap.fluents["light"].get(("junction", "red"))

    def test_termination_of_other_value_is_noop(self):
        eng = _engine()
        eng.feed([_set(10, "green"), _fault(40, "red")])
        snap = eng.query(100)
        assert snap.intervals("light", ("junction", "green")).holds_at(90)

    def test_reinitiating_same_value_does_not_restart(self):
        eng = _engine()
        eng.feed([_set(10, "green"), _set(50, "green")])
        snap = eng.query(100)
        assert snap.intervals("light", ("junction", "green")).intervals == (
            (11, None),
        )

    def test_simultaneous_initiations_largest_wins(self):
        eng = _engine()
        eng.feed([_set(10, "amber"), _set(10, "green")])
        snap = eng.query(100)
        assert snap.intervals("light", ("junction", "green")).holds_at(50)
        assert not snap.intervals("light", ("junction", "amber"))

    def test_value_at_accessor(self):
        light = _traffic_light()
        eng = RTEC([light], window=100, step=100)
        eng.feed([_set(10, "green"), _set(40, "red")])
        snap = eng.query(100)
        # value_at lives on the rule context; emulate via snapshot scan.
        held = [
            stored_key[-1]
            for stored_key, ivs in snap.fluents["light"].items()
            if ivs.holds_at(20)
        ]
        assert held == ["green"]


class TestValuedFluentWindows:
    def test_value_persists_across_windows(self):
        eng = _engine(window=50, step=50)
        eng.feed([_set(10, "green")])
        eng.query(50)
        snap = eng.query(100)
        ivs = snap.intervals("light", ("junction", "green"))
        assert ivs.holds_at(99)
        assert ivs.first_start() == 11  # historical start retained

    def test_value_switch_across_windows(self):
        eng = _engine(window=50, step=50)
        eng.feed([_set(10, "green")])
        eng.query(50)
        eng.feed([_set(70, "red")])
        snap = eng.query(100)
        assert snap.intervals("light", ("junction", "green")).intervals == (
            (11, 71),
        )
        assert snap.intervals("light", ("junction", "red")).holds_at(90)

    def test_stale_cached_value_does_not_resurrect(self):
        eng = _engine(window=50, step=50)
        eng.feed([_set(10, "green"), _set(40, "red")])
        eng.query(50)
        snap = eng.query(100)  # quiet window
        assert not snap.intervals("light", ("junction", "green"))
        assert snap.intervals("light", ("junction", "red")).holds_at(99)

    def test_at_most_one_value_at_any_point(self):
        eng = _engine(window=60, step=30)
        eng.feed([
            _set(10, "green"), _set(25, "red"), _fault(45, "red"),
            _set(55, "amber"), _set(80, "green"),
        ])
        last = None
        for snap in eng.run(120):
            last = snap
        for t in range(0, 120):
            held = [
                stored_key[-1]
                for stored_key, ivs in last.fluents.get("light", {}).items()
                if ivs.holds_at(t)
            ]
            assert len(held) <= 1, f"two values at t={t}: {held}"


def test_an_unchanged_value_keeps_its_intervals_object():
    eng = _engine(window=100, step=50)
    eng.feed([_set(10, "green")])
    first = eng.query(50).fluents["light"]
    second = eng.query(100).fluents["light"]
    assert second[("junction", "green")] is first[("junction", "green")]
    eng.feed([_set(120, "red")])
    third = eng.query(150).fluents["light"]
    assert list(third[("junction", "green")]) == [(11, 121)]
    assert list(third[("junction", "red")]) == [(121, None)]


class TestInitially:
    def test_boolean_fluent_initially_true(self):
        from repro.core.rules import FunctionalSimpleFluent

        fluent = FunctionalSimpleFluent(
            "power",
            initiated=lambda ctx: [],
            terminated=lambda ctx: [
                (("x",), e.time) for e in ctx.events("off")
            ],
        )
        eng = RTEC(
            [fluent], window=100, step=100,
            initially={("power", ("x",)): True},
        )
        eng.feed([Event("off", 60, {})])
        snap = eng.query(100)
        ivs = snap.intervals("power", ("x",))
        assert ivs.holds_at(30)
        assert not ivs.holds_at(70)

    def test_boolean_fluent_rejects_non_true(self):
        from repro.core.rules import FunctionalSimpleFluent

        fluent = FunctionalSimpleFluent(
            "power", initiated=lambda ctx: [], terminated=lambda ctx: [],
        )
        with pytest.raises(ValueError, match="initially True"):
            RTEC(
                [fluent], window=10, step=10,
                initially={("power", ("x",)): "green"},
            )

    def test_valued_fluent_initial_value(self):
        eng = _engine(initially={("light", ("junction",)): "red"})
        eng.feed([_set(60, "green")])
        snap = eng.query(100)
        assert snap.intervals("light", ("junction", "red")).holds_at(30)
        assert snap.intervals("light", ("junction", "green")).holds_at(80)
        assert not snap.intervals("light", ("junction", "red")).holds_at(80)


@given(
    st.lists(
        st.tuples(
            st.integers(1, 99),
            st.sampled_from(["green", "red", "amber"]),
            st.booleans(),  # True = set, False = fault
        ),
        max_size=15,
    )
)
@settings(max_examples=50, deadline=None)
def test_valued_fluent_matches_pointwise_simulation(commands):
    events = [
        _set(t, colour) if is_set else _fault(t, colour)
        for t, colour, is_set in commands
    ]
    eng = _engine()
    eng.feed(events)
    snap = eng.query(100)

    # Brute-force simulation of the documented semantics.
    by_time = {}
    for t, colour, is_set in commands:
        by_time.setdefault(t, {"set": set(), "fault": set()})[
            "set" if is_set else "fault"
        ].add(colour)
    state = None
    for t in range(0, 101):
        cause = t - EFFECT_DELAY
        if cause in by_time:
            cmds = by_time[cause]
            if state in cmds["fault"]:
                state = None
            if cmds["set"]:
                state = sorted(cmds["set"])[-1]
        held = [
            stored_key[-1]
            for stored_key, ivs in snap.fluents.get("light", {}).items()
            if ivs.holds_at(t)
        ]
        expected = [state] if state is not None else []
        assert held == expected, f"t={t}: engine {held} vs sim {expected}"
