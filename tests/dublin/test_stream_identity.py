"""The columnar generators, injectors and region split reproduce the
object-per-SDE stream bit for bit.

``tests/golden/stream_digests.json`` was recorded from the tree whose
simulators built an ``Event``/``FluentFact`` per SDE (see
``tests/golden/stream_identity.py``).  The digests cover every record
in order — arrival stamps and the exact Python type of every payload
value included — so identical RNG draw order, identical float
arithmetic and type-exact materialisation are all pinned at once.
"""

import json

import pytest

from tests.dublin.helpers import unreliable_buses
from tests.golden.stream_identity import (
    BARE_ONLY,
    CITIES,
    DIGESTS_PATH,
    compute_digests,
)


@pytest.fixture(scope="module")
def current():
    return compute_digests()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS_PATH.read_text())


def test_same_streams_are_recorded(current, recorded):
    assert {c: sorted(s) for c, s in current.items()} == {
        c: sorted(s) for c, s in recorded.items()
    }


@pytest.mark.parametrize("city", list(CITIES))
def test_stream_and_split_digests(current, recorded, city):
    probe = "clean" if city in BARE_ONLY else "split_quirks"
    assert "split_groups2" in recorded[city][probe]
    for name, expected in recorded[city].items():
        got = current[city][name]
        assert sorted(got) == sorted(expected), (city, name)
        for part in expected:
            assert got[part] == expected[part], (city, name, part)


def test_split_quirks_profile_reaches_the_quirks(recorded):
    # The quirks only exist where bus records are lost or doubled: the
    # profile built for them must change the record counts.
    for name, city in recorded.items():
        if name not in BARE_ONLY:
            assert city["split_quirks"]["n"] != city["clean"]["n"]


def test_added_miniatures_reach_the_branches_they_were_added_for():
    scenario, start, end = CITIES["miniature_two_hours"]()
    assert scenario.config.unreliable_mode == "inverted"
    assert unreliable_buses(scenario.buses)
    assert scenario.scats.faulty_sensors()
    gps = scenario.generate(start, end).columns.fact_block("gps")
    bus = gps.key_column(0)
    direction = gps.value_column("direction")
    turned = {
        b for b in set(bus.tolist())
        if len(set(direction[bus == b].tolist())) == 2
    }
    assert turned, "no bus reached a terminal in two hours"
