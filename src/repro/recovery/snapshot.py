"""Atomic, checksummed state snapshots.

A snapshot is the full serialised security state of the proxy stack at
one instant; together with the journal segment opened at the same
moment it forms one *epoch*: ``recover = load(snapshot) +
replay(journal)``.  Snapshots bound journal replay time and enable
compaction (older epochs are deleted once a newer snapshot is durable).

File format: a single header line ``<crc32-hex8>`` followed by the
canonical JSON document the CRC covers.  Writes go to a temp file that
is atomically renamed into place (``os.replace``), so a crash mid-write
never destroys the previous epoch's snapshot — the reader simply rejects
a half-written file and recovery falls back to the prior epoch.

:class:`EpochStore` owns the on-disk epoch layout for every durable
component (the proxy's :class:`~repro.recovery.manager.RecoveryManager`,
fleet checkpoints and the distributed coordinator): it lists the epoch
numbers of one file-name pattern, builds their paths, finds the newest
readable snapshot, and prunes to a fixed window of ``EPOCH_WINDOW``
epochs — the current one plus the one a corrupt snapshot falls back to.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "write_snapshot",
    "read_snapshot",
    "EPOCH_WINDOW",
    "EpochStore",
]

#: Version of the snapshot *container* (component schemas carry their own).
SNAPSHOT_FORMAT_VERSION = 1

#: Epochs kept on disk by :meth:`EpochStore.prune`: the newest, plus the
#: previous one that recovery falls back to when the newest snapshot is
#: unreadable.
EPOCH_WINDOW = 2


def write_snapshot(path: str, state: Dict[str, object]) -> int:
    """Atomically write ``state`` as a checksummed snapshot file.

    Returns the number of bytes written.  The payload must be
    JSON-native (the component ``to_state()`` contract).
    """
    document = {"format": SNAPSHOT_FORMAT_VERSION, "state": state}
    payload = json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob = f"{zlib.crc32(payload):08x}\n".encode("ascii") + payload
    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    return len(blob)


def read_snapshot(path: str) -> Optional[Dict[str, object]]:
    """Load a snapshot's state; ``None`` when missing or corrupt.

    Corruption (bad CRC, truncation, unparsable JSON, unknown container
    format) is never an error — recovery treats an unreadable snapshot
    exactly like a missing one and falls back to an older epoch.
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError:
        return None
    newline = blob.find(b"\n")
    if newline < 0:
        return None
    try:
        expected = int(blob[:newline], 16)
    except ValueError:
        return None
    payload = blob[newline + 1 :]
    if zlib.crc32(payload) != expected:
        return None
    try:
        document = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(document, dict) or document.get("format") != SNAPSHOT_FORMAT_VERSION:
        return None
    state = document.get("state")
    return state if isinstance(state, dict) else None


class EpochStore:
    """The epoch-numbered snapshot and journal files of one directory.

    ``snapshot`` and ``journal`` are file-name patterns with one integer
    field; epoch ``e`` is ``snapshot.format(e)`` plus the journal opened
    with it.  A directory may hold more per-epoch entries (the
    distributed machines' payloads, logs and telemetry dirs): their
    patterns go through :meth:`path` and :meth:`epochs` directly.
    """

    def __init__(self, directory: str, snapshot: str, journal: str = "") -> None:
        self.directory = directory
        self.snapshot = snapshot
        self.journal = journal

    def path(self, pattern: str, epoch: int) -> str:
        """Path of epoch ``epoch`` of ``pattern``."""
        return os.path.join(self.directory, pattern.format(epoch))

    def epochs(self, pattern: str) -> List[int]:
        """Epoch numbers on disk for ``pattern``, ascending (none if no directory)."""
        if not pattern:
            return []
        prefix, rest = pattern.split("{", 1)
        suffix = rest.split("}", 1)[1]
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        stems = (
            name[len(prefix) : len(name) - len(suffix)]
            for name in names
            if name.startswith(prefix) and name.endswith(suffix)
        )
        return sorted(int(stem) for stem in stems if stem.isdecimal())

    def snapshot_path(self, epoch: int) -> str:
        return self.path(self.snapshot, epoch)

    def journal_path(self, epoch: int) -> str:
        return self.path(self.journal, epoch)

    def snapshot_epochs(self) -> List[int]:
        return self.epochs(self.snapshot)

    def journal_epochs(self) -> List[int]:
        return self.epochs(self.journal)

    def newest_snapshot(
        self, accept: Optional[Callable[[int, Dict[str, object]], bool]] = None
    ) -> Tuple[int, Optional[Dict[str, object]]]:
        """The newest readable snapshot as ``(epoch, state)``; ``(0, None)`` if none.

        Unreadable snapshots are skipped, and so is any state ``accept``
        returns false for (a foreign digest).  ``accept`` may instead
        raise to refuse the whole directory (a header mismatch).
        """
        for epoch in reversed(self.snapshot_epochs()):
            state = read_snapshot(self.snapshot_path(epoch))
            if state is not None and (accept is None or accept(epoch, state)):
                return epoch, state
        return 0, None

    def prune(self, newest: int) -> None:
        """Delete the epochs that fall out of the window ending at ``newest``."""
        self._delete_below(newest - EPOCH_WINDOW + 1)

    def clear(self) -> None:
        """Delete every snapshot and journal epoch."""
        self._delete_below(None)

    def _delete_below(self, keep_from: Optional[int]) -> None:
        for pattern in (self.snapshot, self.journal):
            for epoch in self.epochs(pattern):
                if keep_from is None or epoch < keep_from:
                    os.unlink(self.path(pattern, epoch))
