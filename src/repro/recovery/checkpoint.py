"""Versioned, checksummed, atomically written checkpoints.

A checkpoint file is one *frame*: a fixed header followed by a pickle
of the checkpointed object graph::

    offset  size  field
    0       8     magic  b"RPROCKP1"
    8       4     format version (little-endian u32)
    12      8     payload length in bytes (little-endian u64)
    20      32    SHA-256 of the payload
    52      ...   payload (pickle, highest protocol)

Files are named ``checkpoint-%08d.ckpt`` by the recognition step they
snapshot and written through :func:`repro.ioutils.atomic_write_bytes`
(tmp file + ``os.replace``), so a crash mid-write leaves at most a
stray ``.tmp`` — never a torn checkpoint.  The loader nevertheless
validates magic, version, length and digest on every read and falls
back to the next-newest file: a torn or bit-rotted checkpoint (e.g.
written by a non-atomic writer before a power loss — what the
``CrashInjector``'s mid-write phase simulates) costs the work since
the previous checkpoint, not the run.

:class:`SnapshotLog` is the same frame, appended: the pipeline's
recognition snapshots, one frame per interval checkpoint, in one
append-only file beside the checkpoints, validated by the same routine.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from ..ioutils import atomic_write_bytes

MAGIC = b"RPROCKP1"
#: Version 11: an SDE block pickles as its columns alone, slot by slot.
#: A file of any other version is refused at the header, before its
#: payload is unpickled (docs/recovery.md has the history).
FORMAT_VERSION = 11
_HEADER = struct.Struct("<8sIQ32s")
_NAME_RE = re.compile(r"^checkpoint-(\d{8})\.ckpt$")


class CheckpointError(RuntimeError):
    """A checkpoint file failed validation."""


class NoValidCheckpoint(CheckpointError):
    """No checkpoint in the directory survived validation."""


@dataclass(frozen=True)
class CheckpointInfo:
    """One on-disk checkpoint's identity."""

    path: Path
    step: int
    size: int


def _frame(payload: Any) -> bytes:
    """``payload`` pickled behind the checksummed header."""
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, len(blob), hashlib.sha256(blob).digest()
    )
    return header + blob


def _unframe(data: bytes, offset: int, source) -> tuple[bytes, int]:
    """Validate the frame at ``offset`` of ``data``.

    Returns ``(blob, end)``: the pickled payload, and the offset just
    past the frame.  Raises :class:`CheckpointError` on a truncated
    header, wrong magic or version, a payload shorter than the header
    says, or a digest mismatch.
    """
    if len(data) - offset < _HEADER.size:
        raise CheckpointError(f"{source}: truncated header at byte {offset}")
    magic, version, length, digest = _HEADER.unpack_from(data, offset)
    if magic != MAGIC:
        raise CheckpointError(f"{source}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{source}: unsupported format version {version}")
    start = offset + _HEADER.size
    blob = data[start:start + length]
    if len(blob) != length:
        raise CheckpointError(
            f"{source}: payload is {len(blob)} bytes, header says {length}"
        )
    if hashlib.sha256(blob).digest() != digest:
        raise CheckpointError(f"{source}: payload checksum mismatch")
    return blob, start + length


class SnapshotLog:
    """An append-only file of frames: ``snapshots.log``.

    The pipeline coordinator appends one frame per interval checkpoint
    (the recognition snapshots since the previous one) before it writes
    that checkpoint, which records the file's length after the frame as
    its ``log_end``.  A restore reads back the frames below its
    checkpoint's ``log_end`` and truncates the file there.
    """

    def __init__(self, path):
        self.path = Path(path)

    def append(self, payload: Any) -> tuple[int, int]:
        """Append ``payload`` as one frame, flushed and fsynced.

        Returns ``(end, size)``: the file's length after the frame,
        and the frame's.
        """
        data = _frame(payload)
        with self.path.open("ab") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
            return handle.tell(), len(data)

    def read(self, end: int) -> list[Any]:
        """Validate and unpickle every frame below ``end``, in order.

        Raises :class:`CheckpointError` when a frame fails validation,
        or the file (missing, truncated) ends before ``end`` — including
        a frame that crosses it.
        """
        if end == 0:
            return []
        try:
            with self.path.open("rb") as handle:
                data = handle.read(end)
        except FileNotFoundError:
            data = b""
        payloads, offset = [], 0
        while offset < end:
            blob, offset = _unframe(data, offset, self.path)
            payloads.append(pickle.loads(blob))
        return payloads

    def truncate(self, end: int) -> None:
        """Cut the file back to ``end`` bytes (an empty file if it is
        missing), so the next append lands at ``end``."""
        with self.path.open("ab") as handle:
            handle.truncate(end)
            os.fsync(handle.fileno())


class CheckpointManager:
    """Reads and writes the checkpoint files of one run directory.

    Parameters
    ----------
    directory:
        The run's recovery directory (created if missing); shared with
        the write-ahead journal.
    retain:
        How many checkpoints to keep; older ones are pruned after each
        successful write.  At least 2, so a freshly written file that
        turns out corrupt always leaves a predecessor to fall back to.
    """

    def __init__(self, directory, *, retain: int = 3):
        if retain < 2:
            raise ValueError(f"retain must be at least 2, got {retain}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.retain = retain

    def path_for(self, step: int) -> Path:
        """The checkpoint path for ``step``."""
        return self.directory / f"checkpoint-{step:08d}.ckpt"

    def list(self) -> list[CheckpointInfo]:
        """On-disk checkpoints, oldest first (no validation)."""
        found = []
        for path in self.directory.iterdir():
            match = _NAME_RE.match(path.name)
            if match:
                found.append(
                    CheckpointInfo(
                        path=path,
                        step=int(match.group(1)),
                        size=path.stat().st_size,
                    )
                )
        return sorted(found, key=lambda info: info.step)

    # ------------------------------------------------------------------
    def save(
        self, step: int, payload: Any, *, pre_replace=None
    ) -> CheckpointInfo:
        """Serialise ``payload`` and write the checkpoint for ``step``.

        ``pre_replace(path, data)``, when given, runs after
        serialisation but before the atomic write — the seam the
        mid-write crash injector uses to deposit a torn file and die.
        """
        data = _frame(payload)
        path = self.path_for(step)
        if pre_replace is not None:
            pre_replace(path, data)
        atomic_write_bytes(path, data)
        self._prune()
        return CheckpointInfo(path=path, step=step, size=len(data))

    def _prune(self) -> None:
        # The baseline (step 0) is never pruned: it holds the pristine
        # pre-generation system every later *streamless* checkpoint
        # needs to rebuild its pending stream.  ``retain`` applies to
        # the mid-run checkpoints.
        others = [info for info in self.list() if info.step != 0]
        for info in others[: -self.retain]:
            info.path.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    def load(self, path) -> Any:
        """Validate and unpickle one checkpoint file.

        Raises :class:`CheckpointError` on any validation failure
        (truncated header, wrong magic/version, short payload, digest
        mismatch).
        """
        data = Path(path).read_bytes()
        blob, end = _unframe(data, 0, path)
        if end != len(data):
            raise CheckpointError(
                f"{path}: payload is {len(data) - _HEADER.size} bytes, "
                f"header says {len(blob)}"
            )
        return pickle.loads(blob)

    def load_latest(
        self, accept: Optional[Callable[[Any], None]] = None
    ) -> tuple[Any, CheckpointInfo, int]:
        """The newest checkpoint that validates.

        Returns ``(payload, info, fallbacks)`` where ``fallbacks``
        counts newer checkpoints that were skipped as invalid.
        ``accept(payload)``, when given, may still refuse a file that
        validated, by raising :class:`CheckpointError` (the pipeline
        coordinator refuses one whose snapshot-log prefix does not
        validate); it is skipped like a torn one.  Raises
        :class:`NoValidCheckpoint` when nothing validates (including an
        empty directory).
        """
        fallbacks = 0
        last_error: Optional[CheckpointError] = None
        for info in reversed(self.list()):
            try:
                payload = self.load(info.path)
                if accept is not None:
                    accept(payload)
                return payload, info, fallbacks
            except CheckpointError as error:
                last_error = error
                fallbacks += 1
        raise NoValidCheckpoint(
            f"no valid checkpoint under {self.directory}"
            + (f" (last error: {last_error})" if last_error else "")
        )
