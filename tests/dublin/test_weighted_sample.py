"""The SCATS placement's weighted draws against the scalar loop they
replaced.

``repro.dublin.network.weighted_sample`` matches each draw to its item
with one ``np.cumsum`` and a ``searchsorted``; the loop in
``tests/dublin/helpers.py`` summed the weights left and walked them
with a running sum.  Both add left to right, so they must choose the
same items in the same order and leave the RNG in the same state: on
the default Dublin network's centre-biased weights (the placement every
scenario makes) and on drawn weights — ties, a single item, ``k`` of 0
and of every item, weights spanning many orders of magnitude.  Tier-1
runs a fixed derandomised budget; given ``--hypothesis-seed`` (CI's
``chaos`` job draws one) a larger one.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dublin import ScenarioConfig, generate_street_network
from repro.dublin.network import weighted_sample
from tests.dublin.helpers import loop_weighted_sample


def _budget(request):
    seeded = request.config.getoption("hypothesis_seed", None) is not None
    return settings(
        max_examples=300 if seeded else 60,
        derandomize=not seeded,
        deadline=None,
    )


def _same_draws(items, weights, k, seed):
    fast, slow = random.Random(seed), random.Random(seed)
    assert weighted_sample(fast, items, weights, k) == loop_weighted_sample(
        slow, items, weights, k
    )
    assert fast.getstate() == slow.getstate()


def test_dublin_placement_draws_what_the_loop_drew():
    config = ScenarioConfig()
    network = generate_street_network(
        rows=config.rows, cols=config.cols, seed=config.seed
    )
    nodes = list(network.graph.nodes)
    c_lon, c_lat = network.centre
    weights = [
        1.0 / (1.0 + 25.0 * math.hypot(lon - c_lon, lat - c_lat))
        for lon, lat in map(network.position, nodes)
    ]
    assert len(nodes) > config.n_intersections
    _same_draws(nodes, weights, config.n_intersections, config.seed + 1)


def test_drawn_weights_draw_what_the_loop_drew(request):
    weight = st.one_of(
        st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False),
        st.sampled_from([0.1, 0.2, 0.3, 1.0]),
    )

    @_budget(request)
    @given(
        weights=st.lists(weight, min_size=1, max_size=60),
        fraction=st.floats(0, 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(weights, fraction, seed):
        k = round(fraction * len(weights))
        _same_draws(list(range(len(weights))), weights, k, seed)

    check()
