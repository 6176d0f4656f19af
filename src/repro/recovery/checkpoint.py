"""Versioned, checksummed, atomically written checkpoints.

A checkpoint file is a fixed header followed by a pickle of the whole
pipeline object graph::

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
"""

from __future__ import annotations

import hashlib
import pickle
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from ..ioutils import atomic_write_bytes

MAGIC = b"RPROCKP1"
#: Version 9: the engine's working memory pickles as
#: ``repro.core.window.WorkingMemory`` (``repro.core.incremental`` until
#: version 8), and a pipeline checkpoint's ``SystemConfig`` has
#: seventeen fields (twenty-six until version 8).  Since version 8 the
#: scenario a pipeline checkpoint carries holds each
#: bus as its frozen initial state and a ground truth without memo
#: tables; a version-7 bus pickled its kinematics (position, distance
#: travelled, the span's start) and a version-7 ground truth two
#: memo dicts.  Since version 7 an engine pickle carries neither the
#: object window's buffers nor the two configuration flags
#: (``incremental``, ``compiled_rules``, ``_events``, ``_facts``,
#: ``_inputs_sorted``) a version-6 engine did.  Since version 6 a
#: pipeline checkpoint's crowd state (participants, cooldown times,
#: prior index, reward ledger, outcome counts) is the system's
#: ``CrowdLoop``; a version-5 system pickled it as attributes of its
#: own.  An engine has carried its window, its pending batches,
#: the inertia seed and the last query time — no output point of an
#: earlier query — since version 5 (a version-4 engine pickled each
#: definition's cached output points and reuse contract, in classes
#: this tree no longer has; version 3 carried the window as per-key
#: lists of record tuples, version 2 carried object feeds as
#: ``(arrival, seq, is_fact, row)`` tuples beside the ``PendingBatch``
#: arrays, version 1 carried only those); an older file is refused
#: rather than mis-restored.
FORMAT_VERSION = 9
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
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        header = _HEADER.pack(
            MAGIC, FORMAT_VERSION, len(blob), hashlib.sha256(blob).digest()
        )
        data = header + blob
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
        if len(data) < _HEADER.size:
            raise CheckpointError(f"{path}: truncated header")
        magic, version, length, digest = _HEADER.unpack_from(data)
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: unsupported format version {version}"
            )
        blob = data[_HEADER.size:]
        if len(blob) != length:
            raise CheckpointError(
                f"{path}: payload is {len(blob)} bytes, header says {length}"
            )
        if hashlib.sha256(blob).digest() != digest:
            raise CheckpointError(f"{path}: payload checksum mismatch")
        return pickle.loads(blob)

    def load_latest(
        self,
    ) -> tuple[Any, CheckpointInfo, int]:
        """The newest checkpoint that validates.

        Returns ``(payload, info, fallbacks)`` where ``fallbacks``
        counts newer checkpoints that were skipped as invalid.  Raises
        :class:`NoValidCheckpoint` when nothing validates (including an
        empty directory).
        """
        fallbacks = 0
        last_error: Optional[CheckpointError] = None
        for info in reversed(self.list()):
            try:
                return self.load(info.path), info, fallbacks
            except CheckpointError as error:
                last_error = error
                fallbacks += 1
        raise NoValidCheckpoint(
            f"no valid checkpoint under {self.directory}"
            + (f" (last error: {last_error})" if last_error else "")
        )
