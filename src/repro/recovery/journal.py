"""Checksummed append-only write-ahead journal.

The FIAT proxy is an in-home middlebox: a power cycle must not reset the
security state it accumulated (learned rules, replay cache, validated
interactions, lockouts).  This module provides the durability primitive:
an append-only JSONL journal where every record is framed with a CRC32
of its canonical body::

    <crc32-hex8> <canonical-json-body>\n

Records are written *before* the corresponding state mutation is applied
(write-ahead), so a crash between write and apply is recovered by
re-applying the journal.  The reader is torn-tail tolerant: a record
that is truncated (no trailing newline), fails its CRC, or cannot be
parsed ends the readable prefix — everything after the first bad frame
is discarded, because record ordering past a corruption cannot be
trusted (fail-closed).  :meth:`JournalReader` reports how many bytes of
the file were valid so a writer can truncate the torn tail before
appending again.
"""

from __future__ import annotations

import io
import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["JournalWriter", "JournalReadResult", "read_journal", "frame_record"]

#: Length of the hex CRC prefix plus the separating space.
_FRAME_PREFIX_LEN = 9


def frame_record(record: Dict[str, object]) -> bytes:
    """Render one record as a CRC-framed journal line."""
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    payload = body.encode("utf-8")
    return f"{zlib.crc32(payload):08x} ".encode("ascii") + payload + b"\n"


def _parse_frame(line: bytes) -> Optional[Dict[str, object]]:
    """Decode one framed line; ``None`` when the frame is invalid."""
    if len(line) < _FRAME_PREFIX_LEN or line[_FRAME_PREFIX_LEN - 1 : _FRAME_PREFIX_LEN] != b" ":
        return None
    try:
        expected = int(line[: _FRAME_PREFIX_LEN - 1], 16)
    except ValueError:
        return None
    payload = line[_FRAME_PREFIX_LEN:]
    if zlib.crc32(payload) != expected:
        return None
    try:
        record = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    return record if isinstance(record, dict) else None


class JournalWriter:
    """Append-only writer for one journal segment.

    Appends are flushed to the OS, not to stable storage, unless the
    caller asks for it per record (``append(..., sync=True)``); the
    crash harness models the un-synced tail as journal-tail
    corruption/truncation.
    """

    def __init__(self, path: str, truncate_to: Optional[int] = None) -> None:
        if truncate_to is not None and os.path.exists(path):
            # Resume hook: cut a torn tail (everything past the last
            # valid frame, as reported by :func:`read_journal`) before
            # reopening for append, so the segment stays parseable.
            with open(path, "rb+") as handle:
                handle.truncate(truncate_to)
        self.path = path
        self._handle: Optional[io.BufferedWriter] = open(path, "ab")
        self.n_appended = 0
        #: bytes known to be on stable storage (everything past this
        #: offset may be lost or torn by a power cut).
        self.synced_bytes = os.path.getsize(path)

    def append(self, record: Dict[str, object], sync: bool = False) -> int:
        """Frame and append one record; returns the bytes written.

        ``sync=True`` forces this record (and everything before it) to
        stable storage — the write-ahead discipline for security-critical
        records that must never be un-happened by a torn tail (e.g. a
        consumed proof: losing its journal record would reopen the replay
        window).
        """
        if self._handle is None:
            raise ValueError("journal writer is closed")
        frame = frame_record(record)
        self._handle.write(frame)
        self._handle.flush()
        if sync:
            os.fsync(self._handle.fileno())
            self.synced_bytes = os.path.getsize(self.path)
        self.n_appended += 1
        return len(frame)

    @property
    def size_bytes(self) -> int:
        """Current size of the journal file in bytes."""
        return os.path.getsize(self.path)

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class JournalReadResult:
    """The readable prefix of one journal segment."""

    records: List[Dict[str, object]] = field(default_factory=list)
    #: bytes of the file covered by valid frames (truncate-to offset)
    valid_bytes: int = 0
    #: whether the file ended in an invalid/truncated frame
    torn: bool = False
    #: "" | "truncated" | "bad-frame"
    torn_reason: str = ""


def read_journal(path: str) -> JournalReadResult:
    """Read every valid record of a journal segment, tolerating torn tails.

    Missing files read as empty (a crash can hit before the first
    append).  Reading stops at the first invalid frame; ``valid_bytes``
    is the offset up to which the segment may be trusted (and to which a
    recovering writer should truncate before resuming appends).
    """
    result = JournalReadResult()
    if not os.path.exists(path):
        return result
    with open(path, "rb") as handle:
        data = handle.read()
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            result.torn = True
            result.torn_reason = "truncated"
            return result
        record = _parse_frame(data[offset:newline])
        if record is None:
            result.torn = True
            result.torn_reason = "bad-frame"
            return result
        result.records.append(record)
        offset = newline + 1
        result.valid_bytes = offset
    return result
