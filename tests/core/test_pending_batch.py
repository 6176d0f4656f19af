"""The pending buffer holds arrays, not records, and so does the
window it feeds.

A columnar feed costs no Python object per SDE; admission moves the
rows a query admits inside its window into the window store by
reference, and a record is built only for a row something reads as an
object; and the buffer survives pickling — whole (shard start, shard
checkpoints) and streamless (interval checkpoints, refilled from the
regenerated stream) — admitting the same rows in the same order
afterwards.
"""

import gc
import pickle
from collections.abc import Iterable

import numpy as np
import pytest

from repro.core import RTEC, Event, FluentFact
from repro.core.columns import FactColumns, SDEColumns
from repro.core.events import Occurrence
from repro.core.window import WorkingMemory, streamless_checkpoint
from repro.core.rules import DerivedEvent, RuleContext

from .helpers import event_columns


class Echo(DerivedEvent):
    """One occurrence per ``ping`` SDE, at the SDE's time."""

    def __init__(self):
        super().__init__("echo", depends_on=())

    def occurrences(self, ctx: RuleContext) -> Iterable[Occurrence]:
        for ev in ctx.events("ping"):
            yield Occurrence("echo", (ev["id"],), ev.time, {"id": ev["id"]})


def _batch(n: int, seed: int = 0) -> SDEColumns:
    """``n`` rows, half ``ping`` events and half ``pos`` facts, over
    1000 s, one in four delayed by up to 400 s."""
    rng = np.random.default_rng(seed)
    half = n // 2

    def stamps(count):
        times = np.sort(rng.integers(1, 1000, count))
        late = rng.random(count) < 0.25
        return times, times + late * rng.integers(1, 400, count)

    times, arrivals = stamps(half)
    pings = event_columns(
        "ping",
        times,
        arrivals=arrivals,
        numeric={"level": rng.random(half), "id": np.arange(half)},
        extra={"src": ["s%d" % (i % 7) for i in range(half)]},
    )
    times, arrivals = stamps(n - half)
    pos = FactColumns(
        "pos",
        times,
        arrivals,
        key_columns=(["k%d" % (i % 11) for i in range(n - half)],),
        value_fields={"x": rng.random(n - half), "bit": times % 2},
    )
    return SDEColumns([pings], [pos])


def test_feed_columns_builds_no_object_per_sde():
    batch = _batch(50_000)
    engine = RTEC([Echo()], window=100, step=50, params={})
    gc.collect()
    before = len(gc.get_objects())
    engine.feed_columns(batch)
    gc.collect()
    assert len(gc.get_objects()) - before < 500
    assert sum(len(b) for b in engine._wm._batches) == 50_000


def test_admit_materialises_exactly_the_window_rows():
    batch = _batch(50_000)
    arrivals = np.concatenate([b.arrivals for b in batch.blocks])
    times = np.concatenate([b.times for b in batch.blocks])
    is_ping = np.arange(batch.n) < len(batch.events[0])
    engine = RTEC([Echo()], window=100, step=50, params={})
    engine.feed_columns(batch)
    previous = -1
    admitted = built = skipped = 0
    for q in (300, 350, 400, 900):
        snapshot = engine.query(q)
        due = (arrivals > previous) & (arrivals <= q)
        live = due & (times > q - 100)
        assert snapshot.rows_admitted == int(live.sum())
        assert snapshot.rows_skipped_horizon == int((due & ~live).sum())
        # Echo reads ``ping`` records and nothing reads ``pos``: only
        # the pings are ever built, each once.
        assert snapshot.rows_materialised == int((live & is_ping).sum())
        admitted += snapshot.rows_admitted
        built += snapshot.rows_materialised
        skipped += snapshot.rows_skipped_horizon
        previous = q
    wm = engine._wm
    assert (wm.rows_admitted, wm.rows_skipped_horizon) == (admitted, skipped)
    assert wm.rows_materialised == built
    assert 0 < built < admitted
    assert admitted + skipped + sum(len(b) for b in wm._batches) == 50_000


def test_admission_builds_no_object_per_row():
    """The twin of the feed bound above, one layer in: moving 50,000
    rows from the pending buffer into the window allocates arrays."""
    wm = WorkingMemory()
    wm.buffer_columns(_batch(50_000))
    gc.collect()
    before = len(gc.get_objects())
    wm.admit(2000, -1)
    wm.evict(-1)
    gc.collect()
    assert len(gc.get_objects()) - before < 1000
    assert wm.rows_admitted == 50_000 and wm.rows_materialised == 0


def test_materialised_payloads_are_type_exact():
    batch = _batch(40)
    wm = WorkingMemory()
    wm.buffer_columns(batch)
    wm.admit(2000, -1)
    events = wm.store("event", "ping").records()
    facts = wm.store("fact", "pos").records()
    assert len(events) + len(facts) == 40 == wm.rows_materialised
    for ev in events:
        assert list(ev.payload) == ["level", "id", "src"]
        assert [type(v) for v in ev.payload.values()] == [float, int, str]
        assert type(ev.time) is int and type(ev.arrival) is int
    for fact in facts:
        assert type(fact.key) is tuple and type(fact.key[0]) is str
        assert [type(v) for v in fact.value.values()] == [float, int]
    # A record is what the block builds for the row, built once.
    assert events == sorted(
        batch.events[0].records(np.arange(20)), key=lambda ev: ev.time
    )
    assert wm.store("event", "ping").records()[3] is events[3]
    assert wm.rows_materialised == 40


def _admissions(wm: WorkingMemory, queries, window=300):
    """How many events each query admits, and the window it leaves —
    per column the rows' sequence numbers and the rows as records."""
    out = []
    for q in queries:
        admitted = wm.admit(q, q - window)
        wm.evict(q - window)
        out.append((
            admitted,
            {
                key: (store.seqs.tolist(), store.records())
                for key, store in wm._stores.items()
            },
        ))
    return out


def _interleaved_memory() -> WorkingMemory:
    """A batch-fed stream, a boundary, then crowd-style object feeds
    and a second batch that land between the stream's late rows."""
    wm = WorkingMemory()
    wm.buffer_columns(_batch(2_000, seed=1))
    wm.mark_stream_boundary()
    for t in range(420, 1300, 40):
        # One feed per SDE pair, as RTEC.feed wraps its objects.
        wm.buffer_columns(
            SDEColumns.from_sdes(
                [Event("crowd", t, {"answer": t % 3}, arrival=t + 30)],
                [FluentFact("noisy", ("p%d" % (t % 5),), True, t, t + 75)],
            )
        )
    wm.buffer_columns(_batch(300, seed=2))
    return wm


QUERIES = tuple(range(500, 1500, 100))


def test_fed_memory_pickles_to_the_same_admissions():
    wm = _interleaved_memory()
    first = _admissions(wm, QUERIES[:3])
    assert sum(len(rows) for _, held in first for rows in held.values())
    restored = pickle.loads(pickle.dumps(wm))
    assert _admissions(restored, QUERIES[3:]) == _admissions(wm, QUERIES[3:])
    assert restored._seq == wm._seq


def test_pickle_carries_only_the_pending_rows_as_arrays():
    wm = WorkingMemory()
    wm.buffer_columns(_batch(20_000))
    whole = len(pickle.dumps(wm))
    wm.admit(600, 300)
    wm.evict(300)
    pending = sum(len(b) for b in wm._batches)
    assert 0 < pending < 20_000 // 2
    # The admitted prefix is cut from the pickle: what remains costs a
    # few dozen bytes a row, not a record each.
    assert len(pickle.dumps(wm._batches)) < whole * 0.6
    assert len(pickle.dumps(wm._batches)) < 80 * pending


def test_streamless_pickle_refills_to_the_same_admissions():
    wm = _interleaved_memory()
    _admissions(wm, QUERIES[:3])
    with streamless_checkpoint():
        blob = pickle.dumps(wm)
    assert len(blob) < len(pickle.dumps(wm))
    restored = pickle.loads(blob)
    restored.refill_columns(_batch(2_000, seed=1), QUERIES[2])
    assert _admissions(restored, QUERIES[3:]) == _admissions(wm, QUERIES[3:])


def test_refill_rejects_a_stream_of_another_length():
    wm = _interleaved_memory()
    with streamless_checkpoint():
        restored = pickle.loads(pickle.dumps(wm))
    with pytest.raises(RuntimeError, match="regenerate deterministically"):
        restored.refill_columns(_batch(1_999, seed=1), 0)
