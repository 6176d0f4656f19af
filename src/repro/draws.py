"""``random.Random`` draws, made for many records at once.

The simulators and the fault injectors draw from :class:`random.Random`
record by record: a fixed short program of ``random()`` and
``randint(a, b)`` calls per emission or per row.  Their streams are
pinned byte for byte, so those exact draws, in that exact order, are
part of the output.  They need not be made one call at a time, though.
CPython's ``random()`` and ``randint`` are pure functions of
consecutive 32-bit MT19937 outputs ("words"):

* ``random()`` reads two words ``a, b`` and returns
  ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``;
* ``randint(lo, hi)`` is ``lo + _randbelow(n)`` with ``n = hi - lo + 1``.
  With ``k = n.bit_length()`` that is ``getrandbits(k)`` (for
  ``k <= 32``, one word shifted right by ``32 - k``), retried on the
  next word while the candidate is ``>= n``.  For ``n = 2**32`` a
  candidate is two words: the first whole, the top bit of the second
  as bit 32.

And ``getrandbits(32 * C)`` returns the next ``C`` words in one call,
the first generated least significant, which is ``"<u4"`` order on
every platform.  So :class:`Draws` takes the words a chunk at a time,
tabulates where a record that starts at each word would end and what
it would draw (:class:`Words`), and follows that table for the records
asked for.  When it is done, the caller's RNG is set exactly where the
scalar calls would have left it: the state at the chunk's first word,
advanced by the words the records consumed.
"""

from __future__ import annotations

import random
from collections.abc import Callable

import numpy as np

#: Words taken from the RNG per chunk.  Every table is this long, so
#: memory does not grow with the number of records drawn.
CHUNK_WORDS = 1 << 15

_TWO_26 = 67108864.0
_TWO_MINUS_53 = 1.0 / 9007199254740992.0


class Words:
    """One chunk of consecutive words, and where draws starting on them
    end.

    Positions run over ``0 .. size``; a draw's *end* is the position
    after its last word.  An end past ``size`` means the draw needs
    words the chunk does not hold; a draw that starts past ``size``
    ends past it too, so a record that runs out of words is seen as
    such however many draws it has left.
    """

    def __init__(self, words: np.ndarray):
        self.size = len(words)
        # Two zero words of padding keep the gathers at the last
        # positions in range; what they give is never used.
        self._words = np.concatenate(
            (words.astype(np.int64), np.zeros(2, dtype=np.int64))
        )

    def random(self, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``random()`` starting at each position of ``at``: its value
        and its end."""
        at = np.minimum(at, self.size)
        a = self._words[at] >> 5
        b = self._words[at + 1] >> 6
        return (a * _TWO_26 + b) * _TWO_MINUS_53, at + 2

    def randint(
        self, lo: int, hi: int, at: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``randint(lo, hi)`` starting at each position of ``at``: its
        value and its end."""
        n = hi - lo + 1
        if n < 1:
            raise ValueError(f"empty range for randint({lo}, {hi})")
        if n > 1 << 32:
            raise ValueError(f"randint range of {n} exceeds 2**32")
        size = self.size
        words = self._words
        if n.bit_length() <= 32:
            stride = 1
            candidate = words[: size + 1] >> (32 - n.bit_length())
        else:  # n == 2**32: 33 bits from two words
            stride = 2
            candidate = words[: size + 1] | (
                (words[1 : size + 2] >> 31) << 32
            )
        # An attempt that runs past the chunk reads padding; whatever it
        # reads, the draw ends past ``size``.
        accepted = candidate < n
        # The first accepted attempt at or after each position, among
        # the positions a retry from there would try; ``size`` if none.
        position = np.arange(size + 1)
        first = np.empty(size + 1, dtype=np.int64)
        for phase in range(stride):
            marks = np.where(
                accepted[phase::stride], position[phase::stride], size
            )
            first[phase::stride] = np.minimum.accumulate(marks[::-1])[::-1]
        q = first[np.minimum(at, size)]
        return lo + candidate[q], q + stride


#: ``program(words, at) -> (end, values)``: one record's draws starting
#: at each position of ``at``, the position after the record, and what
#: the record drew, one array per value.
Program = Callable[[Words, np.ndarray], tuple[np.ndarray, tuple]]


class Draws:
    """The records of one draw program, taken from ``rng`` in order.

    ``take(m)`` returns the next ``m`` records' values, one array per
    value; they are what ``m`` rounds of the program's scalar calls
    would have drawn.  Between :meth:`take` calls ``rng`` belongs to
    this object; leaving the ``with`` block (or :meth:`close`) puts it
    where those scalar calls would have left it.  A program must draw
    at least one word.
    """

    def __init__(self, rng: random.Random, program: Program):
        if type(rng) is not random.Random:
            raise TypeError("Draws reproduces random.Random's own draws only")
        self._rng = rng
        self._program = program
        self._state = None  # rng state at the chunk's first word
        self._size = 0
        # Along the chain of records from the chunk's first word: what
        # each drew and where it ended; the first `_taken` are consumed.
        self._values: tuple = ()
        self._ends = np.zeros(0, dtype=np.int64)
        self._taken = 0

    def __enter__(self) -> "Draws":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _load(self, size: int) -> None:
        """Take ``size`` words from the first one not consumed (what the
        last chunk left over is drawn again, as the new one's head) and
        lay out the records they hold."""
        rng = self._rng
        self.close()
        self._state = rng.getstate()
        words = np.frombuffer(
            rng.getrandbits(32 * size).to_bytes(4 * size, "little"),
            dtype="<u4",
        )
        at = np.arange(size + 1)
        end, values = self._program(Words(words), at)
        if np.any(end <= at):
            raise ValueError("a draw program must draw at least one word")
        # Follow the chain from word 0, doubling: with `nodes` the first
        # 2**j records' starts and `jump` the table of 2**j records
        # ahead, the next 2**j starts are `jump[nodes]`.  Past the chunk
        # every position maps to `size + 1`, which maps to itself.
        step = np.append(np.minimum(end, size + 1), size + 1)
        jump, nodes = step, np.zeros(1, dtype=np.int64)
        while step[nodes[-1]] <= size:
            nodes = np.concatenate((nodes, jump[nodes]))
            jump = jump[jump]
        path = nodes[step[nodes] <= size]
        self._values = tuple(column[path] for column in values)
        self._ends = end[path]
        self._size, self._taken = size, 0

    def take(self, m: int) -> tuple[np.ndarray, ...]:
        """The values of the next ``m`` records, one array per value."""
        if self._state is None:
            self._load(CHUNK_WORDS)
        parts = []
        while True:
            i = self._taken
            j = min(i + m, len(self._ends))
            parts.append(tuple(column[i:j] for column in self._values))
            self._taken = j
            m -= j - i
            if not m:
                break
            # Out of words; a record that does not fit in a whole chunk
            # gets a chunk twice as long.
            self._load(CHUNK_WORDS if j else 2 * self._size)
        if len(parts) == 1:
            return parts[0]
        return tuple(np.concatenate(column) for column in zip(*parts))

    def close(self) -> None:
        """Leave ``rng`` after the last word a record consumed."""
        if self._state is not None:
            self._rng.setstate(self._state)
            if self._taken:
                self._rng.getrandbits(32 * int(self._ends[self._taken - 1]))
