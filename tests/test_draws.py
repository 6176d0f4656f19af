"""``repro.draws`` against the scalar ``random.Random`` calls it stands
for: value for value, and then ``getstate()`` for ``getstate()``.

Programs of ``randint`` over ranges around every power-of-two edge
(``n`` of 1, 2**k and 2**k + 1, up to the two-word ``2**32``), of
``random()`` and of the two mixed with a branch, taken in drawn
portions from drawn seeds, with the chunk shrunk so that the records
cross chunk boundaries — down to chunks shorter than one record, which
must grow.  Tier-1 runs a fixed derandomised budget; given
``--hypothesis-seed`` (CI's ``chaos`` job draws one) a larger one.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.draws
from repro.draws import Draws

#: Range sizes: one word with no, rare and frequent retries, the
#: largest one-word sizes, and the two-word ``2**32``.
SIZES = (1, 2, 3, 6, 11, 116, 240, 256, 257, 2**31, 2**32)
#: Chunk lengths in words; 1 and 2 are shorter than most records.
CHUNKS = (1, 2, 3, 7, 64, 1 << 15)


def _budget(request):
    seeded = request.config.getoption("hypothesis_seed", None) is not None
    return settings(
        max_examples=300 if seeded else 40,
        derandomize=not seeded,
        deadline=None,
    )


def _portions(total):
    """``total`` records as drawn ``take`` sizes (zero included)."""
    return st.lists(st.integers(0, 40), max_size=8).map(
        lambda sizes: sizes + [max(0, total - sum(sizes))]
    )


def _check(program, scalar, seed, portions):
    """Draw ``portions`` of ``program`` records and the same number of
    ``scalar`` records; the values and the RNG states must agree."""
    bulk, loop = random.Random(seed), random.Random(seed)
    with Draws(bulk, program) as draws:
        taken = [draws.take(m) for m in portions]
    expected = [scalar(loop) for _ in range(sum(portions))]
    got = [
        row
        for part in taken
        for row in zip(*(column.tolist() for column in part))
    ]
    assert got == expected
    assert bulk.getstate() == loop.getstate()


@st.composite
def _ranges(draw):
    n = draw(st.sampled_from(SIZES))
    lo = draw(st.integers(-(2**40), 2**40))
    return lo, lo + n - 1


def test_randint_matches_random_random(request, monkeypatch):
    @_budget(request)
    @given(
        bounds=_ranges(),
        seed=st.integers(0, 2**32),
        chunk=st.sampled_from(CHUNKS),
        portions=st.integers(0, 300).flatmap(_portions),
    )
    def check(bounds, seed, chunk, portions):
        lo, hi = bounds
        monkeypatch.setattr(repro.draws, "CHUNK_WORDS", chunk)

        def program(words, at):
            value, at = words.randint(lo, hi, at)
            return at, (value,)

        _check(program, lambda rng: (rng.randint(lo, hi),), seed, portions)

    check()


def test_random_matches_random_random(request, monkeypatch):
    @_budget(request)
    @given(
        seed=st.integers(0, 2**32),
        chunk=st.sampled_from(CHUNKS),
        portions=st.integers(0, 300).flatmap(_portions),
    )
    def check(seed, chunk, portions):
        monkeypatch.setattr(repro.draws, "CHUNK_WORDS", chunk)

        def program(words, at):
            value, at = words.random(at)
            return at, (value,)

        _check(program, lambda rng: (rng.random(),), seed, portions)

    check()


def test_a_branching_program_matches_its_scalar_calls(request, monkeypatch):
    """The fleet's record shape: a draw, a coin, then one of two
    ranges — of different sizes, so the two branches end apart."""

    @_budget(request)
    @given(
        first=_ranges(),
        late=_ranges(),
        quick=_ranges(),
        threshold=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
        seed=st.integers(0, 2**32),
        chunk=st.sampled_from(CHUNKS),
        portions=st.integers(0, 200).flatmap(_portions),
    )
    def check(first, late, quick, threshold, seed, chunk, portions):
        monkeypatch.setattr(repro.draws, "CHUNK_WORDS", chunk)

        def program(words, at):
            a, at = words.randint(*first, at)
            u, at = words.random(at)
            b, after_late = words.randint(*late, at)
            c, after_quick = words.randint(*quick, at)
            is_late = u < threshold
            return np.where(is_late, after_late, after_quick), (
                a, u, np.where(is_late, b, c)
            )

        def scalar(rng):
            a = rng.randint(*first)
            u = rng.random()
            return a, u, rng.randint(*(late if u < threshold else quick))

        _check(program, scalar, seed, portions)

    check()


def test_nothing_taken_leaves_the_rng_alone():
    rng = random.Random(5)
    before = rng.getstate()

    def program(words, at):
        value, at = words.random(at)
        return at, (value,)

    with Draws(rng, program) as draws:
        (values,) = draws.take(0)
    assert values.tolist() == []
    assert rng.getstate() == before
    with Draws(rng, program):
        pass
    assert rng.getstate() == before


def test_refusals():
    rng = random.Random(0)

    def ranged(lo, hi):
        def program(words, at):
            value, at = words.randint(lo, hi, at)
            return at, (value,)

        return program

    with pytest.raises(ValueError, match="exceeds 2\\*\\*32"):
        Draws(rng, ranged(0, 2**32)).take(1)
    with pytest.raises(ValueError, match="empty range"):
        Draws(rng, ranged(3, 2)).take(1)
    with pytest.raises(ValueError, match="at least one word"):
        Draws(rng, lambda words, at: (at, (at,))).take(1)
    with pytest.raises(TypeError):
        Draws(random.SystemRandom(), ranged(0, 1))
