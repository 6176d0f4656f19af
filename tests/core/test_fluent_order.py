"""The order snapshots list fluent groundings in is pinned, per hash
seed.

``tests/golden/fluent_order_digests.json`` holds, for the golden small
city under both rule suites and every recorded ``(window, step)``
pair, a digest of every query's ``list(snapshot.fluents[name])`` and of
the engine's ``_fluent_cache[name]`` key order, under ``PYTHONHASHSEED``
0 and 1 (see ``tests/golden/fluent_order.py``).  That order reaches the
alerts and the crowd's shared RNG (ROADMAP finding F5), and nothing
else in tier-1 sees it: the golden traces compare dicts.  Each hash
seed runs in a child process, so this process's own hash seed does not
matter.
"""

import json

import pytest

from tests.golden.fluent_order import (
    DIGESTS_PATH,
    HASH_SEEDS,
    digests_under,
)


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS_PATH.read_text())


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
def test_fluent_order_is_the_recorded_one(recorded, hash_seed):
    current = digests_under(hash_seed)
    expected = recorded[hash_seed]
    assert sorted(current) == sorted(expected)
    for engine, configs in expected.items():
        assert sorted(current[engine]) == sorted(configs)
        for config, digest in configs.items():
            assert current[engine][config] == digest, (engine, config)


def test_the_two_hash_seeds_order_differently(recorded):
    # Otherwise recording under two of them would prove nothing.
    assert recorded[HASH_SEEDS[0]] != recorded[HASH_SEEDS[1]]
    assert all(
        digest["entries"] > 0
        for configs in recorded[HASH_SEEDS[0]].values()
        for digest in configs.values()
    )
