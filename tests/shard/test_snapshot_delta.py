"""The shard bus's snapshot codec (``repro.shard.delta``) on drawn pairs.

A worker sends each snapshot as a delta against the last one it sent;
the coordinator rebuilds it against the last one it received.  On a
drawn pair of consecutive snapshots — groundings added, removed or
reordered, interval lists replaced or equal but not identical,
occurrences shared, new, dropped or reordered, a map empty or an event
missing from the previous snapshot — the rebuilt snapshot must equal
the sent one in value and in the order of every dict and list, every
object the engine kept from the previous snapshot must be the
coordinator's previous object (``is``), every other one a new object,
the worker's ``bus.*`` counts must match, and a delta against another
base than the one held must raise.  Both
snapshots cross a pickle round trip, as on the bus.  Tier-1 runs a
fixed derandomised budget; given ``--hypothesis-seed`` a larger one.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Occurrence
from repro.core.intervals import IntervalList
from repro.core.rtec import RecognitionSnapshot
from repro.obs import Registry
from repro.shard import ShardConnectionLost
from repro.shard.delta import decode, encode

FLUENTS = ("busCongestion", "trafficRegime", "noisy")
EVENTS = ("agree", "disagree", "delayIncrease")


def _budget(request):
    seeded = request.config.getoption("hypothesis_seed", None) is not None
    return settings(
        max_examples=300 if seeded else 60,
        derandomize=not seeded,
        deadline=None,
    )


def _intervals(draw):
    start = draw(st.integers(0, 50))
    end = draw(st.one_of(st.none(), st.integers(start + 1, start + 20)))
    return IntervalList.single(start, end)


def _occurrence(draw, name):
    return Occurrence(
        name,
        (draw(st.sampled_from(("B1", "B2", "B3"))),),
        draw(st.integers(0, 20)),
        {"k": draw(st.integers(0, 3))},
    )


def _first(draw):
    """A snapshot drawn from nothing."""
    fluents = {}
    for name in draw(st.permutations(FLUENTS)):
        if draw(st.booleans()):
            keys = draw(st.lists(st.integers(0, 9), unique=True, max_size=8))
            fluents[name] = {(f"I{k}",): _intervals(draw) for k in keys}
    occurrences = {}
    for name in draw(st.permutations(EVENTS)):
        if draw(st.booleans()):
            occurrences[name] = [
                _occurrence(draw, name)
                for _ in range(draw(st.integers(0, 6)))
            ]
    return RecognitionSnapshot(
        query_time=300,
        window_start=-300,
        fluents=fluents,
        occurrences=occurrences,
        elapsed=draw(st.floats(0, 1)),
        n_events=draw(st.integers(0, 100)),
        per_definition={name: 0.001 for name in fluents},
    )


def _next(draw, previous):
    """The next snapshot: what the engine keeps from ``previous`` is the
    identical object, and anything else may change."""
    fluents = {}
    for name in draw(st.permutations(FLUENTS)):
        if not draw(st.booleans()):
            continue
        old = previous.fluents.get(name, {})
        dropped = draw(st.sets(st.sampled_from(list(old)))) if old else set()
        kept = [key for key in old if key not in dropped]
        if draw(st.booleans()):
            kept = draw(st.permutations(kept))
        added = [
            (f"N{k}",)
            for k in draw(st.lists(st.integers(0, 9), unique=True, max_size=4))
        ]
        keys = kept + added
        if draw(st.booleans()):
            keys = draw(st.permutations(keys))
        current = {}
        for key in keys:
            fate = draw(st.sampled_from(("same", "equal", "new", "same")))
            if key in old and fate == "same":
                current[key] = old[key]
            elif key in old and fate == "equal":
                current[key] = IntervalList(old[key].intervals)
            else:
                current[key] = _intervals(draw)
        fluents[name] = current
    occurrences = {}
    for name in draw(st.permutations(EVENTS)):
        if not draw(st.booleans()):
            continue
        old = previous.occurrences.get(name, [])
        dropped = draw(st.sets(st.integers(0, len(old) - 1))) if old else ()
        kept = [occ for i, occ in enumerate(old) if i not in dropped]
        new = [_occurrence(draw, name) for _ in range(draw(st.integers(0, 4)))]
        items = kept + new
        if draw(st.booleans()):
            items = draw(st.permutations(items))
        occurrences[name] = items
    return RecognitionSnapshot(
        query_time=previous.query_time + 300,
        window_start=previous.window_start + 300,
        fluents=fluents,
        occurrences=occurrences,
        elapsed=draw(st.floats(0, 1)),
        n_new_events=draw(st.integers(0, 100)),
        per_definition={name: 0.002 for name in fluents},
    )


def _wire(delta):
    return pickle.loads(pickle.dumps(delta))


def _assert_same_order(decoded, sent):
    assert decoded == sent
    assert list(decoded.fluents) == list(sent.fluents)
    for name, by_key in sent.fluents.items():
        assert list(decoded.fluents[name].items()) == list(by_key.items())
    assert list(decoded.occurrences) == list(sent.occurrences)
    for name, occurrences in sent.occurrences.items():
        assert decoded.occurrences[name] == occurrences


def test_a_delta_rebuilds_the_snapshot_sharing_what_did_not_change(request):
    @_budget(request)
    @given(data=st.data())
    def check(data):
        draw = data.draw
        first = _first(draw)
        second = _next(draw, first)
        # The coordinator's copy of the first snapshot, sent in full.
        held = decode(_wire(encode(first, None, Registry())), None)
        _assert_same_order(held, first)
        metrics = Registry()
        decoded = decode(_wire(encode(second, first, metrics)), held)
        _assert_same_order(decoded, second)
        shared = {"intervals": 0, "occurrences": 0}
        for name, by_key in second.fluents.items():
            old = first.fluents.get(name, {})
            for key, intervals in by_key.items():
                if key in old:
                    shared["intervals"] += old[key] is intervals
                    assert (
                        decoded.fluents[name][key] is held.fluents[name][key]
                    ) == (old[key] is intervals)
        for name, occurrences in second.occurrences.items():
            old = first.occurrences.get(name, [])
            held_old = held.occurrences.get(name, [])
            for occurrence, rebuilt in zip(
                occurrences, decoded.occurrences[name]
            ):
                positions = [
                    i for i, o in enumerate(old) if o is occurrence
                ]
                if positions:
                    shared["occurrences"] += 1
                    assert rebuilt is held_old[positions[0]]
                else:
                    assert all(rebuilt is not o for o in held_old)
        counters = metrics.to_dict()["counters"]
        for kind, maps in (
            ("intervals", second.fluents), ("occurrences", second.occurrences)
        ):
            total = sum(len(items) for items in maps.values())
            assert counters[f"bus.{kind}_referenced"] == shared[kind]
            assert counters[f"bus.{kind}_sent"] == total - shared[kind]

    check()


def test_a_delta_against_another_base_raises():
    previous = RecognitionSnapshot(
        query_time=300,
        window_start=-300,
        fluents={"f": {("I1",): IntervalList.single(0, 10)}},
    )
    current = RecognitionSnapshot(
        query_time=600, window_start=0, fluents=dict(previous.fluents)
    )
    delta = _wire(encode(current, previous, Registry()))
    held = decode(_wire(encode(previous, None, Registry())), None)
    assert decode(delta, held) == current
    with pytest.raises(ShardConnectionLost, match="query 300"):
        decode(delta, None)
    with pytest.raises(ShardConnectionLost, match="holds query 600"):
        decode(delta, current)
    # A full snapshot needs no base and ignores the one held.
    assert decode(_wire(encode(current, None, Registry())), held) == current
