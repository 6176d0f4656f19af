"""Unit tests for the versioned checkpoint store."""

import pytest

from repro.recovery import (
    CheckpointError,
    CheckpointManager,
    NoValidCheckpoint,
)
from repro.streams import CircuitBreaker


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        payload = {"step": 3, "data": list(range(10))}
        info = manager.save(3, payload)
        assert info.step == 3
        assert info.path.exists()
        assert info.size == info.path.stat().st_size
        assert manager.load(info.path) == payload

    def test_load_latest_picks_newest(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        for step in (2, 5, 9):
            manager.save(step, {"step": step})
        payload, info, fallbacks = manager.load_latest()
        assert payload == {"step": 9}
        assert info.step == 9
        assert fallbacks == 0

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(NoValidCheckpoint):
            CheckpointManager(tmp_path).load_latest()

    def test_save_is_atomic_no_tmp_left_behind(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(1, {"a": 1})
        leftovers = [
            p for p in tmp_path.iterdir() if not p.name.endswith(".ckpt")
        ]
        assert leftovers == []


class TestValidation:
    def test_corrupted_payload_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        info = manager.save(1, {"a": 1})
        data = bytearray(info.path.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte: checksum must catch it
        info.path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            manager.load(info.path)

    def test_truncated_file_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        info = manager.save(1, {"a": 1})
        data = info.path.read_bytes()
        info.path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            manager.load(info.path)

    def test_bad_magic_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        info = manager.save(1, {"a": 1})
        data = info.path.read_bytes()
        info.path.write_bytes(b"NOTACKPT" + data[8:])
        with pytest.raises(CheckpointError):
            manager.load(info.path)

    def _refuses_version(self, tmp_path, version):
        from repro.recovery.checkpoint import _HEADER, FORMAT_VERSION

        assert FORMAT_VERSION == 9
        manager = CheckpointManager(tmp_path)
        info = manager.save(1, {"a": 1})
        data = info.path.read_bytes()
        magic, _, length, digest = _HEADER.unpack_from(data)
        info.path.write_bytes(
            _HEADER.pack(magic, version, length, digest)
            + data[_HEADER.size:]
        )
        with pytest.raises(
            CheckpointError, match=f"unsupported format version {version}"
        ):
            manager.load(info.path)
        with pytest.raises(NoValidCheckpoint):
            manager.load_latest()

    def test_version_1_file_refused(self, tmp_path):
        # A version-1 file pickled the pending buffer as tuples of
        # rows; this tree holds arrays.  An old file is refused at the
        # header, before its payload is unpickled.
        self._refuses_version(tmp_path, 1)

    def test_version_2_file_refused(self, tmp_path):
        # A version-2 working memory carried object feeds in a second,
        # tuple-based pending buffer that this tree no longer reads.
        self._refuses_version(tmp_path, 2)

    def test_version_3_file_refused(self, tmp_path):
        # A version-3 working memory held its window as per-key lists
        # of record tuples; this tree holds one array store per type.
        self._refuses_version(tmp_path, 3)

    def test_version_4_file_refused(self, tmp_path):
        # A version-4 engine pickled each definition's cached output
        # points in classes this tree no longer has.
        self._refuses_version(tmp_path, 4)

    def test_version_5_file_refused(self, tmp_path):
        # A version-5 system pickled the crowd state (participants,
        # cooldowns, prior index, rewards) as its own attributes; this
        # tree's system reads it from its CrowdLoop.
        self._refuses_version(tmp_path, 5)

    def test_version_6_file_refused(self, tmp_path):
        # A version-6 engine pickled the object window's buffers and
        # the incremental/compiled flags; this tree's engine has
        # neither.
        self._refuses_version(tmp_path, 6)

    def test_version_7_file_refused(self, tmp_path):
        # A version-7 scenario pickled every bus's kinematics as
        # mutable state and the ground truth's memo tables; this
        # tree's buses are their frozen initial states.
        self._refuses_version(tmp_path, 7)

    def test_version_8_file_refused_before_unpickling(self, tmp_path):
        # A version-8 engine pickled its working memory as
        # ``repro.core.incremental.WorkingMemory``, a module this tree
        # no longer has: unpickling the payload would fail with
        # ModuleNotFoundError.  The header refuses it first.
        import hashlib
        import pickle

        from repro.recovery.checkpoint import _HEADER, MAGIC

        blob = b"crepro.core.incremental\nWorkingMemory\n."
        with pytest.raises(ModuleNotFoundError):
            pickle.loads(blob)
        manager = CheckpointManager(tmp_path)
        manager.path_for(4).write_bytes(
            _HEADER.pack(MAGIC, 8, len(blob), hashlib.sha256(blob).digest())
            + blob
        )
        with pytest.raises(
            CheckpointError, match="unsupported format version 8"
        ):
            manager.load(manager.path_for(4))
        with pytest.raises(NoValidCheckpoint):
            manager.load_latest()

    def test_load_latest_falls_back_over_torn_file(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(2, {"step": 2})
        torn = manager.save(5, {"step": 5})
        torn.path.write_bytes(torn.path.read_bytes()[:40])
        payload, info, fallbacks = manager.load_latest()
        assert payload == {"step": 2}
        assert info.step == 2
        assert fallbacks == 1

    def test_all_torn_raises(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        info = manager.save(1, {"a": 1})
        info.path.write_bytes(b"junk")
        with pytest.raises(NoValidCheckpoint):
            manager.load_latest()


class TestRetention:
    def test_prunes_to_retain(self, tmp_path):
        manager = CheckpointManager(tmp_path, retain=2)
        for step in range(1, 6):
            manager.save(step, {"step": step})
        steps = [info.step for info in manager.list()]
        assert steps == [4, 5]

    def test_retain_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, retain=1)


class TestBreakerRoundTrip:
    """Satellite: a CircuitBreaker survives checkpoint save/load with
    its state machine intact."""

    def test_open_breaker_round_trips(self, tmp_path):
        breaker = CircuitBreaker(threshold=2, reset_after_s=100)
        breaker.record_failure(10)
        breaker.record_failure(20)
        assert breaker.is_open

        manager = CheckpointManager(tmp_path)
        info = manager.save(1, {"breaker": breaker})
        revived = manager.load(info.path)["breaker"]

        assert revived.state == CircuitBreaker.OPEN
        assert revived.opened_at == 20
        assert revived.open_intervals == [(20, None)]
        # The revived breaker continues the same cooldown clock.
        assert not revived.allow(119)
        assert revived.allow(120)  # half-open trial
        revived.record_success(121)
        assert revived.state == CircuitBreaker.CLOSED
        assert revived.open_intervals == [(20, 121)]

    def test_half_open_breaker_round_trips(self, tmp_path):
        breaker = CircuitBreaker(threshold=1, reset_after_s=50)
        breaker.record_failure(0)
        assert breaker.allow(50)  # transitions to half-open
        assert breaker.state == CircuitBreaker.HALF_OPEN

        manager = CheckpointManager(tmp_path)
        info = manager.save(1, {"breaker": breaker})
        revived = manager.load(info.path)["breaker"]
        assert revived.state == CircuitBreaker.HALF_OPEN
        revived.record_failure(60)
        assert revived.state == CircuitBreaker.OPEN
        assert revived.opened_at == 60
