"""Write-ahead journal of admitted stream items.

One journal *segment* per checkpoint: ``journal-%08d.wal`` is the
segment opened right after the checkpoint for that step was written
(segment 0 precedes the first checkpoint), so recovery replays a
single segment — the one following the checkpoint it restored —
unless it had to fall back over a corrupt newer checkpoint, in which
case it replays every segment from the restored one on, in order.

Each record is one line::

    <sha256(json)[:12]> <canonical json>\n

The per-line checksum makes the reader torn-tail tolerant: a crash
mid-append leaves a final line that fails its checksum (or has no
newline), and the scan simply stops there — everything before it is
intact.  Records are appended *before* the work they describe is
performed (write-ahead), flushed per record.

The journal is also the coordinator's replay ledger: on restore, the
``"step"`` records after the checkpointed step say exactly which steps
and how many admitted stream items the resumed run will reprocess —
surfaced as the ``recovery.replay.*`` counters.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Optional

__all__ = ["WriteAheadJournal"]


def _frame(record: dict[str, Any]) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
    return f"{digest} {text}\n"


def _parse(line: bytes) -> Optional[dict[str, Any]]:
    """The record on one framed line, or ``None`` if the line is torn
    or damaged.  Bytes, not text: a flipped bit can leave a line that
    is not UTF-8, and that too must end the scan, not raise."""
    if not line.endswith(b"\n"):
        return None  # torn tail: the trailing newline never made it
    digest, sep, text = line[:-1].partition(b" ")
    if not sep:
        return None
    if hashlib.sha256(text).hexdigest()[:12].encode("ascii") != digest:
        return None
    try:
        return json.loads(text)
    except ValueError:  # not JSON, or not UTF-8
        return None


def _base_step_of(path: Path) -> Optional[int]:
    """The base step in a segment's (or a replay archive's) file name,
    or ``None`` for a name that is not the journal's."""
    digits = path.name[len("journal-"):len("journal-") + 8]
    return int(digits) if digits.isdigit() else None


class WriteAheadJournal:
    """Segmented, checksummed append-only journal in a run directory."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._handle = None
        self._base_step: Optional[int] = None

    def segment_path(self, base_step: int) -> Path:
        """Path of the segment that follows the checkpoint at
        ``base_step``."""
        return self.directory / f"journal-{base_step:08d}.wal"

    # ------------------------------------------------------------------
    def open(self, base_step: int) -> None:
        """Start appending to the segment for ``base_step``."""
        self.close()
        self._handle = self.segment_path(base_step).open(
            "a", encoding="utf-8"
        )
        self._base_step = base_step

    def archive(self, base_step: int) -> None:
        """Rename the segment for ``base_step``, if there is one, to
        the first free ``<name>.replayed-N``.

        On restore the replayed steps re-journal themselves as they
        re-execute, so the live segments must restart empty — while the
        superseded records stay on disk for forensics.
        """
        if self._base_step == base_step:
            self.close()
        path = self.segment_path(base_step)
        if not path.exists():
            return
        n = 0
        while True:
            archived = path.with_name(f"{path.name}.replayed-{n}")
            if not archived.exists():
                break
            n += 1
        path.rename(archived)

    def append(self, record: dict[str, Any]) -> None:
        """Append one record to the open segment (write-ahead: call
        before performing the work the record describes)."""
        if self._handle is None:
            raise RuntimeError("journal segment is not open")
        self._handle.write(_frame(record))
        self._handle.flush()

    def close(self) -> None:
        """Close the open segment, if any."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            self._base_step = None

    def prune(self, min_base_step: int) -> None:
        """Drop segments (and their replay archives) older than the
        oldest checkpoint still on disk — they can never be replayed."""
        for path in self.directory.glob("journal-*.wal*"):
            base_step = _base_step_of(path)
            if base_step is not None and base_step < min_base_step:
                path.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    def segments_from(self, base_step: int) -> list[int]:
        """Base steps of the live segments at or after ``base_step``,
        ascending — what a restore of that checkpoint replays."""
        steps = map(_base_step_of, self.directory.glob("journal-*.wal"))
        return sorted(
            step for step in steps if step is not None and step >= base_step
        )

    def read_segment(self, base_step: int) -> list[dict[str, Any]]:
        """All intact records of one segment, in order.

        Tolerates a torn tail: the scan stops at the first line that
        fails framing or its checksum.  A missing segment reads as
        empty.
        """
        path = self.segment_path(base_step)
        if not path.exists():
            return []
        records = []
        with path.open("rb") as handle:
            for line in handle:
                record = _parse(line)
                if record is None:
                    break
                records.append(record)
        return records
