"""Unit tests for the write-ahead journal."""

import pytest

from repro.recovery import WriteAheadJournal


def records(n, base=0):
    return [{"kind": "step", "step": base + i} for i in range(n)]


class TestAppendRead:
    def test_round_trip(self, tmp_path):
        journal = WriteAheadJournal(tmp_path)
        journal.open(0)
        for record in records(5):
            journal.append(record)
        journal.close()
        assert journal.read_segment(0) == records(5)

    def test_append_requires_open_segment(self, tmp_path):
        journal = WriteAheadJournal(tmp_path)
        with pytest.raises(RuntimeError):
            journal.append({"kind": "step"})

    def test_missing_segment_reads_empty(self, tmp_path):
        assert WriteAheadJournal(tmp_path).read_segment(7) == []

    def test_segments_are_independent(self, tmp_path):
        journal = WriteAheadJournal(tmp_path)
        journal.open(0)
        journal.append({"kind": "step", "step": 1})
        journal.open(5)
        journal.append({"kind": "step", "step": 6})
        journal.close()
        assert journal.read_segment(0) == [{"kind": "step", "step": 1}]
        assert journal.read_segment(5) == [{"kind": "step", "step": 6}]


class TestTornTail:
    def test_truncated_last_line_is_dropped(self, tmp_path):
        journal = WriteAheadJournal(tmp_path)
        journal.open(0)
        for record in records(3):
            journal.append(record)
        journal.close()
        path = journal.segment_path(0)
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # crash mid-append: no newline
        assert journal.read_segment(0) == records(2)

    def test_corrupted_line_stops_the_scan(self, tmp_path):
        journal = WriteAheadJournal(tmp_path)
        journal.open(0)
        for record in records(3):
            journal.append(record)
        journal.close()
        path = journal.segment_path(0)
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = "deadbeef0000 {\"not\": \"the checksummed text\"}\n"
        path.write_text("".join(lines))
        # Everything *before* the corrupt line is intact and returned.
        assert journal.read_segment(0) == records(1)

    def test_garbage_line_without_separator(self, tmp_path):
        journal = WriteAheadJournal(tmp_path)
        journal.open(0)
        journal.append({"kind": "step", "step": 1})
        journal.close()
        path = journal.segment_path(0)
        path.write_text(path.read_text() + "garbage-no-separator\n")
        assert journal.read_segment(0) == [{"kind": "step", "step": 1}]


class TestSegmentLifecycle:
    def test_fresh_open_archives_previous_segment(self, tmp_path):
        journal = WriteAheadJournal(tmp_path)
        journal.open(0)
        journal.append({"kind": "step", "step": 1})
        journal.archive(0)
        journal.open(0)
        journal.append({"kind": "step", "step": 1})
        journal.archive(0)
        journal.open(0)
        journal.close()
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "journal-00000000.wal",
            "journal-00000000.wal.replayed-0",
            "journal-00000000.wal.replayed-1",
        ]
        # The live segment restarted empty; archives kept the records.
        assert journal.read_segment(0) == []

    def test_prune_drops_segments_below_base(self, tmp_path):
        journal = WriteAheadJournal(tmp_path)
        for base in (0, 5, 10):
            journal.open(base)
            journal.append({"kind": "step", "step": base + 1})
        journal.archive(0)  # leave an archive behind too
        journal.open(0)
        journal.close()
        journal.prune(5)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["journal-00000005.wal", "journal-00000010.wal"]
