"""Checkpoints that do not re-serialise the past.

An interval checkpoint holds the pipeline's state and a cursor,
``log_end``, into the snapshot log (``snapshots.log``); the
recognition snapshots go to that log, one frame per interval
checkpoint holding those since the previous one.  On the crash-parity
city over 24 steps: the frames hold each snapshot exactly once, no
interval checkpoint pickles a ``RecognitionSnapshot``, and the last
interval checkpoint is at most 1.5 times the first (while checkpoints
carried every snapshot so far, the storm's grew 3.4-fold over six
writes).  After a torn checkpoint the restore cuts the log back to the
restored cursor, so the replayed steps are logged once.  And the
decoders, under cuts and bit flips Hypothesis draws: a damaged
snapshot log or journal segment is refused from the damage on, and a
damaged checkpoint file is refused and skipped, never read as
something else.
"""

import io
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import SDEColumns
from repro.core.events import Event, FluentFact
from repro.faults import CrashInjector
from repro.recovery import CheckpointError, CheckpointManager, WriteAheadJournal
from repro.recovery.checkpoint import _HEADER, SnapshotLog

from .harness import resume_run, run_with_recovery
from .test_crash_parity import CONFIG, build_system

STEPS = 24
INTERVAL = CONFIG["checkpoint_interval"]


def _logged(directory) -> dict[str, list[int]]:
    """Per engine key, the query times of the snapshots in the
    directory's snapshot log, frame after frame."""
    log = SnapshotLog(directory / "snapshots.log")
    logged: dict[str, list[int]] = {}
    for frame in log.read(log.path.stat().st_size):
        for key, snapshots in frame.items():
            logged.setdefault(key, []).extend(s.query_time for s in snapshots)
    return logged


def _query_times(report) -> dict[str, list[int]]:
    return {
        key: [s.query_time for s in log.snapshots]
        for key, log in report.logs.items()
    }


def _classes(path) -> set[str]:
    """The names of the classes a checkpoint file's pickle refers to."""
    names = set()

    class Spy(pickle.Unpickler):
        def find_class(self, module, name):
            names.add(name)
            return super().find_class(module, name)

    Spy(io.BytesIO(path.read_bytes()[_HEADER.size:])).load()
    return names


def _flip(data: bytes, bit: int) -> bytes:
    damaged = bytearray(data)
    damaged[bit // 8] ^= 1 << (bit % 8)
    return bytes(damaged)


@pytest.fixture(scope="module")
def long_run(tmp_path_factory):
    """The crash-parity city over 24 steps, every checkpoint kept."""
    directory = tmp_path_factory.mktemp("long")
    outcome = run_with_recovery(
        build_system(), 0, STEPS * 300, directory, retain=STEPS
    )
    assert not outcome.crashed
    interval = [i for i in CheckpointManager(directory).list() if i.step]
    assert [i.step for i in interval] == list(
        range(INTERVAL, STEPS + 1, INTERVAL)
    )
    return directory, outcome.report, interval


def test_frames_hold_each_snapshot_once(long_run):
    directory, report, interval = long_run
    assert _logged(directory) == _query_times(report)
    assert all(len(t) == STEPS for t in _query_times(report).values())
    counters = report.metrics["counters"]
    assert counters["recovery.log.frames"] == len(interval)
    assert counters["recovery.log.bytes"] == (
        (directory / "snapshots.log").stat().st_size
    )


def test_no_interval_checkpoint_pickles_a_snapshot(long_run):
    _, _, interval = long_run
    for info in interval:
        classes = _classes(info.path)
        assert "RecognitionLog" in classes
        assert "RecognitionSnapshot" not in classes, info.path.name


def test_interval_checkpoints_stay_flat(long_run):
    _, _, interval = long_run
    first, last = interval[0].size, interval[-1].size
    assert last <= 1.5 * first, (first, last)


@pytest.mark.chaos
@pytest.mark.parametrize("torn_step", [3, 6])
def test_replayed_steps_are_logged_once(tmp_path, torn_step):
    # The frame for ``torn_step`` is appended, then its checkpoint is
    # torn mid-write: the restore falls back (to the baseline for 3, to
    # step 3 for 6) and must cut that frame off before the replay logs
    # the same steps again.
    outcome = run_with_recovery(
        build_system(),
        0,
        12 * 300,
        tmp_path,
        crash=CrashInjector(at_step=torn_step, phase="checkpoint"),
    )
    assert outcome.crashed and outcome.crash_phase == "checkpoint"
    _, resumed = resume_run(tmp_path)
    assert not resumed.crashed
    assert resumed.report.metrics["counters"]["recovery.restore.fallbacks"] == 1
    assert _logged(tmp_path) == _query_times(resumed.report)


def _budget(request):
    seeded = request.config.getoption("hypothesis_seed", None) is not None
    return settings(
        max_examples=1000 if seeded else 200,
        derandomize=not seeded,
        deadline=None,
    )


FRAMES = [{"central": list(range(n)), "north": ["x"] * n} for n in (3, 0, 5)]


def _damage(raw: bytes):
    """Damaged copies of ``raw``, as ``(bytes, first damaged byte)``: a
    cut, one to three distinct bit flips, or both."""
    size = len(raw)
    cut = st.one_of(st.none(), st.integers(0, size - 1))
    flips = st.sets(st.integers(0, 8 * size - 1), max_size=3)

    def apply(damage):
        cut, bits = damage
        damaged = raw
        for bit in bits:
            damaged = _flip(damaged, bit)
        first = min([bit // 8 for bit in bits] + [size])
        if cut is not None:
            damaged, first = damaged[:cut], min(first, cut)
        return damaged, first

    return st.tuples(cut, flips).filter(
        lambda damage: damage[0] is not None or damage[1]
    ).map(apply)


@pytest.fixture(scope="module")
def snapshot_log(tmp_path_factory):
    log = SnapshotLog(tmp_path_factory.mktemp("log") / "snapshots.log")
    ends = [log.append(frame)[0] for frame in FRAMES]
    return log, ends, log.path.read_bytes()


def test_damaged_snapshot_log_is_refused_from_the_damage_on(
    request, snapshot_log
):
    log, ends, raw = snapshot_log

    @_budget(request)
    @given(damage=_damage(raw))
    def check(damage):
        damaged, first_bad = damage
        log.path.write_bytes(damaged)
        for k, end in enumerate(ends):
            if end <= first_bad:
                assert log.read(end) == FRAMES[: k + 1]
            else:
                with pytest.raises(CheckpointError):
                    log.read(end)

    check()


JOURNAL = [
    {"kind": "step", "step": 1, "q": 300, "arrivals": {"bus": 4}},
    {"kind": "feed", "step": 1, "events": [{"type": "crowd", "v": 1}]},
    {"kind": "commit", "step": 1, "crowd_events": 1},
]


@pytest.fixture(scope="module")
def journal_segment(tmp_path_factory):
    journal = WriteAheadJournal(tmp_path_factory.mktemp("journal"))
    journal.open(0)
    for record in JOURNAL:
        journal.append(record)
    journal.close()
    return journal, journal.segment_path(0).read_bytes()


def test_damaged_journal_scan_stops_at_the_damaged_line(
    request, journal_segment
):
    journal, raw = journal_segment
    line_ends = [i + 1 for i, byte in enumerate(raw) if byte == ord("\n")]

    @_budget(request)
    @given(damage=_damage(raw))
    def check(damage):
        damaged, first_bad = damage
        journal.segment_path(0).write_bytes(damaged)
        # Lines ending at or before the first damaged byte survive.
        kept = sum(end <= first_bad for end in line_ends)
        assert journal.read_segment(0) == JOURNAL[:kept]

    check()


def _batch() -> SDEColumns:
    return SDEColumns.from_sdes(
        [Event("crowd", 30, {"intersection": 4, "answer": True}, 45)],
        [FluentFact("gps", ("B1",), {"lon": 1.5, "congestion": 1}, 20)],
    )


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """A good checkpoint at step 2 and, to damage, one at step 4; both
    carry an SDE batch, whose pickled form is what the format
    version guards."""
    manager = CheckpointManager(tmp_path_factory.mktemp("ckpt"))
    manager.save(2, {"step": 2, "batch": _batch()})
    latest = manager.save(4, {"step": 4, "batch": _batch()})
    return manager, latest.path, latest.path.read_bytes()


def test_damaged_checkpoint_is_refused_and_skipped(request, checkpoints):
    manager, path, raw = checkpoints
    expected = _batch()

    @_budget(request)
    @given(damage=_damage(raw))
    def check(damage):
        path.write_bytes(damage[0])
        with pytest.raises(CheckpointError):
            manager.load(path)
        payload, info, fallbacks = manager.load_latest()
        assert (payload["step"], info.step, fallbacks) == (2, 2, 1)
        batch = payload["batch"]
        assert list(batch.iter_events()) == list(expected.iter_events())
        assert list(batch.iter_facts()) == list(expected.iter_facts())

    check()
