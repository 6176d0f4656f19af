"""``FaultInjector.block`` draws its rows' fates in bulk; they must be
what ``_decide`` draws row after row.

On drawn :class:`StreamFaults` — every fault class on or off, rates of
0 and 1, ``max_delay_s`` of 1, 256, 257 and the two-word ``2**32`` —
over drawn row counts, with the chunk shrunk so the rows cross chunk
boundaries: the rows kept, their order and duplicates, their arrivals
and corrupted cells are those the ``_decide`` fates give, and the
injector's RNG ends where ``_decide``'s does.  Corruption itself draws
nothing, which the bulk path relies on.  Tier-1 runs a fixed
derandomised budget; given ``--hypothesis-seed`` (CI's ``chaos`` job
draws one) a larger one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.draws
from repro.core.columns import EventColumns
from repro.faults import FaultInjector, StreamFaults


def _budget(request):
    seeded = request.config.getoption("hypothesis_seed", None) is not None
    return settings(
        max_examples=300 if seeded else 40,
        derandomize=not seeded,
        deadline=None,
    )


_rates = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _specs(draw):
    delay_rate = draw(_rates)
    corrupt_rate = draw(_rates)
    return StreamFaults(
        drop_rate=draw(_rates),
        delay_rate=delay_rate,
        max_delay_s=(
            draw(st.sampled_from([1, 256, 257, 2**32]))
            if delay_rate
            else draw(st.sampled_from([0, 7]))
        ),
        duplicate_rate=draw(_rates),
        corrupt_rate=corrupt_rate,
        corrupt_fields=("flag",) if corrupt_rate else (),
    )


def _block(n):
    times = np.arange(n, dtype=np.int64) * 3 + 100
    return EventColumns(
        "move",
        times,
        times + np.arange(n, dtype=np.int64) % 4,
        fields={
            "row": np.arange(n, dtype=np.int64),
            "flag": np.arange(n, dtype=np.int64) % 2,
        },
    )


def test_block_fates_are_decides(request, monkeypatch):
    @_budget(request)
    @given(
        spec=_specs(),
        n=st.integers(0, 300),
        seed=st.integers(0, 2**16),
        chunk=st.sampled_from([1, 3, 64, 1 << 15]),
    )
    def check(spec, n, seed, chunk):
        monkeypatch.setattr(repro.draws, "CHUNK_WORDS", chunk)
        block = _block(n)
        bulk = FaultInjector(spec, seed=seed, feed="bus")
        loop = FaultInjector(spec, seed=seed, feed="bus")
        out = bulk.block(block)
        expected = []
        for i in range(n):
            dropped, delay, duplicated, corrupted = loop._decide()
            if dropped:
                continue
            flag = block.fields["flag"][i].item()
            row = (i, block.arrivals[i].item() + delay,
                   1 - flag if corrupted else flag)
            expected += [row] * (2 if duplicated else 1)
        got = list(zip(
            out.fields["row"].tolist(),
            out.arrivals.tolist(),
            out.fields["flag"].tolist(),
        ))
        assert got == expected
        assert bulk._rng.getstate() == loop._rng.getstate()

    check()


@pytest.mark.parametrize("n", [0, 1, 50, 2000])
def test_corruption_draws_nothing(n):
    """With every row corrupted, ``block`` and the record path leave the
    RNG where the fates alone leave it."""
    spec = StreamFaults(
        drop_rate=0.1, delay_rate=0.2, max_delay_s=30,
        corrupt_rate=1.0, corrupt_fields=("flag",),
    )
    fates_only = FaultInjector(spec, seed=4, feed="gps")
    for _ in range(n):
        fates_only._decide()
    bulk = FaultInjector(spec, seed=4, feed="gps")
    out = bulk.block(_block(n))
    assert bulk._rng.getstate() == fates_only._rng.getstate()
    records = FaultInjector(spec, seed=4, feed="gps")
    for ev in _block(n).records(np.arange(n)):
        records.event(ev)
    assert records._rng.getstate() == fates_only._rng.getstate()
    if n:
        source = out.fields["row"]
        assert (out.fields["flag"] == 1 - source % 2).all()


def test_max_delay_beyond_two_to_the_32_is_refused():
    with pytest.raises(ValueError, match="max_delay_s"):
        StreamFaults(delay_rate=0.5, max_delay_s=2**32 + 1)
