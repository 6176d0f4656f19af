"""A fed engine's pickle: what shard start and shard checkpoints ship.

The pending stream travels as arrays — each block cut down to its
pending rows plus one sequence number a row — so the pickle of an
engine holding a quarter of full-density Dublin is both smaller and
some sixty times quicker to write than when the buffer was a tuple and
a record per SDE.  Measured on ten minutes of the default city
(942 buses, seed 0): 81 bytes a row before the ingest path went
columnar (969,332 bytes for the 11,947 rows of ``central``), 58 after
(698,916 bytes).

The window travels as arrays too, once it holds rows: per held row its
sequence number and the cells it was fed with, the source blocks cut
down to the live rows.  The same engine after its two queries (11,805
rows held, 111 still pending) pickled to 1,086,706 bytes — 92 a held
row — while the window was per-key lists of record tuples, to
842,231 — 71 a row — as one array store per type with every
definition's last output points cached beside it, and to 716,586 — 61
a row — now that no output point is kept.
"""

import pickle

import pytest

from repro.dublin import DublinScenario, ScenarioConfig
from repro.system import SystemConfig, UrbanTrafficSystem

START, END = 25200, 25800

#: Bytes a pending row of the fed ``central`` engine cost in a pickle
#: at the commit before this test existed.
OBJECT_BUFFER_BYTES_PER_ROW = 81

#: Bytes a held row of the same engine cost in a pickle taken after
#: its queries, at the last commit that cached (and pickled) each
#: definition's output points; 92 while the window was records.
CACHED_POINTS_BYTES_PER_ROW = 71


@pytest.fixture(scope="module")
def fed():
    scenario = DublinScenario(ScenarioConfig(seed=0))
    system = UrbanTrafficSystem(scenario, SystemConfig(seed=0))
    batch = scenario.split_by_region(scenario.generate(START, END))["central"]
    engine = system.engines["central"]
    engine.feed_columns(batch)
    engine.mark_stream_fed()
    return engine, batch.n


def test_fed_engine_pickle_is_smaller_than_the_object_buffer(fed):
    engine, rows = fed
    size = len(pickle.dumps(engine, pickle.HIGHEST_PROTOCOL))
    print(f"\nfed quarter-city engine: {rows} rows, {size} bytes pickled")
    assert rows > 10_000
    assert size < 0.8 * OBJECT_BUFFER_BYTES_PER_ROW * rows


def test_unpickled_engine_recognises_the_same(fed):
    engine, _ = fed
    twin = pickle.loads(pickle.dumps(engine, pickle.HIGHEST_PROTOCOL))
    for q in range(START + 300, END + 1, 300):
        ours, theirs = engine.query(q), twin.query(q)
        assert ours.n_new_events == theirs.n_new_events > 0
        assert ours.rows_materialised == theirs.rows_materialised
        assert ours.occurrences == theirs.occurrences
        assert ours.fluents == theirs.fluents


def test_engine_holding_a_window_pickles_no_fatter_than_records(fed):
    engine, rows = fed
    for q in range(START + 300, END + 1, 300):
        if engine._last_query is None or q > engine._last_query:
            engine.query(q)
    wm = engine._wm
    held = sum(store.n for store in wm._stores.values())
    assert held > 0.9 * rows > sum(len(batch) for batch in wm._batches)
    blob = pickle.dumps(engine, pickle.HIGHEST_PROTOCOL)
    print(f"\nengine holding {held} rows: {len(blob)} bytes pickled")
    assert len(blob) <= CACHED_POINTS_BYTES_PER_ROW * held
    # Nothing derived travels.  No output point: the queries emitted
    # occurrences, the move rows' pair slots hold some, the pickle
    # names none...
    assert any(
        any(slots.tolist())
        for by_key in wm.store("event", "move")._slots.values()
        for slots in by_key.values()
    )
    assert b"Occurrence" not in blob
    # ...and no code: the twin re-derives its own.
    twin = pickle.loads(blob)
    assert twin._wm.rows_encoded == 0 == len(twin._wm.tokens.tokens)
    assert {
        key: store.records() for key, store in twin._wm._stores.items()
    } == {key: store.records() for key, store in wm._stores.items()}
